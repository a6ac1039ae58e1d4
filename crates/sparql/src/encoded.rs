//! The dictionary-encoded execution domain: slot layouts, `TermId` rows and
//! the executor.
//!
//! The one thing this module runs is a `Plan` (see [`crate::optimize`]):
//! `execute` opens the plan in a single walk — the one site where a node's
//! trace span and cancellation poll are attached — and then *pushes* the
//! pattern's solutions into the plan's tail (ask, group, top-k, sort,
//! project). A compiled `EncPattern` cannot be run; only the planner takes
//! one.
//!
//! **One row.** At evaluation start each query's variables are compiled
//! into a dense [`SlotLayout`]: every variable the query mentions anywhere
//! gets one fixed slot index. A solution is a fixed-width `[TermId]` with the
//! sentinel [`UNBOUND`] marking unbound slots — and the whole walk shares a
//! single such buffer. `Op::run(row, emit)` binds a node's slots in the row,
//! calls `emit` with it, and un-binds when `emit` returns, so the call stack
//! is the undo log and no solution is ever copied to be handed on: a BGP is
//! nested index scans, a join nests `run`s, a left join emits the left row
//! itself when its right side emitted nothing, a union runs both branches, a
//! filter pre-binds, tests and restores. `emit` answers `Flow`:
//! `Continue`, `Break` (how `ASK` and an unordered `LIMIT` stop the walk
//! early) or the error that fails the query.
//!
//! **Every scan reads inside one graph.** The query's dataset resolves once,
//! into two graph lists (`EncDataset`): the default graphs a plain pattern
//! reads and the named graphs `GRAPH` can see. A scan stage runs the store's
//! in-graph scan per graph of its scope; `GRAPH ?g` with `?g` unbound is a
//! loop over the named list that binds `?g` and runs the stage as if it had
//! been bound all along.
//!
//! **Sinks copy what they keep.** The tail stages receive the borrowed row:
//! the group stage folds it into per-group accumulators and keeps nothing,
//! the order stage tests it against the top-k heap's maximum before copying
//! it, the project stage decodes the rows of the page. Everything up to
//! there operates on identifiers (two terms compare by reference in the
//! dictionary where ids differ); the dictionary is consulted only where
//! lexical values are genuinely needed (expression evaluation, aggregate
//! arithmetic), and full [`Term`] rows materialize exactly once, at the
//! [`SelectResults`] boundary.
//!
//! The naive reference evaluator ([`crate::reference`]) deliberately stays
//! in the Term domain, so the differential oracle keeps checking this whole
//! module against an implementation that shares none of it.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use hbold_rdf_model::Term;
use hbold_telemetry::Span;
use hbold_triple_store::{EncodedTriple, TermDictionary, TermId, TripleStore, DEFAULT_GRAPH};

use crate::ast::*;
use crate::cancel::CancellationToken;
use crate::error::SparqlError;
use crate::eval::{
    aggregate_numbers, compare_ordered, order_bindings, order_keys, order_solutions,
};
use crate::expr::{
    evaluate_scoped, filter_passes_scoped, number_term, numeric_value, Binding, Scope,
};
use crate::optimize::{Group, Node, Order, Plan, PlanCounters, Select, Tail};
use crate::results::{QueryResults, SelectResults};

/// Sentinel marking an unbound slot in an [`EncRow`].
///
/// `TermId`s are dense indexes starting at 0, so `u32::MAX` can never be a
/// real identifier unless a store interns four billion terms — at which
/// point the dictionary's `Vec<Term>` backing would have failed long before.
pub const UNBOUND: TermId = TermId::MAX;

/// A fixed-width encoded solution row, owned (the walk's one buffer, a copy
/// a sink keeps): `row[slot]` is the [`TermId`] bound to the variable
/// occupying `slot` in the query's [`SlotLayout`], or [`UNBOUND`].
pub type EncRow = Vec<TermId>;

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

/// The query dataset resolved to graph identifiers, once per query: the two
/// graph lists every scan reads inside.
///
/// Without dataset clauses the default graph is the store's own and `GRAPH`
/// sees every named graph holding a quad; any `FROM`/`FROM NAMED` clause
/// *replaces* both (per SPARQL, dataset clauses replace the store dataset
/// rather than extend it), and graphs never interned by the store resolve to
/// nothing and simply drop out.
#[derive(Debug, Clone)]
pub(crate) struct EncDataset {
    /// The graphs merged into the query's default graph:
    /// `[DEFAULT_GRAPH]`, or the `FROM` graphs.
    pub default_graphs: Vec<TermId>,
    /// The graphs visible to `GRAPH`, ascending: the store's named graphs,
    /// or the `FROM NAMED` graphs.
    pub named_graphs: Vec<TermId>,
}

impl EncDataset {
    /// Resolves a parsed [`Dataset`] against the store.
    pub(crate) fn compile(dataset: &Dataset, store: &TripleStore) -> EncDataset {
        if dataset.is_empty() {
            return EncDataset {
                default_graphs: vec![DEFAULT_GRAPH],
                named_graphs: store.named_graph_ids(),
            };
        }
        let resolve = |graphs: &[Term]| -> Vec<TermId> {
            let mut ids: Vec<TermId> = graphs.iter().filter_map(|t| store.id_of(t)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        EncDataset {
            default_graphs: resolve(&dataset.default_graphs),
            named_graphs: resolve(&dataset.named_graphs),
        }
    }

    /// `true` when `GRAPH` can see `graph`.
    pub(crate) fn is_named(&self, graph: TermId) -> bool {
        self.named_graphs.binary_search(&graph).is_ok()
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
    /// Cooperative cancellation token for this evaluation, polled through
    /// the probes [`attach`] makes — before the first row, and by every scan
    /// stage as it examines quads — and at group boundaries by the grouped
    /// tail. `None` (the default) adds no per-row work.
    pub cancel: Option<&'a crate::cancel::CancellationToken>,
}

impl<'a> EncContext<'a> {
    /// A context for one query over `store`, its dataset resolved, with
    /// neither private counters nor a token attached.
    pub(crate) fn new(
        store: &'a TripleStore,
        layout: &'a SlotLayout,
        dataset: &Dataset,
    ) -> EncContext<'a> {
        EncContext {
            store,
            dict: store.dictionary(),
            layout,
            dataset: EncDataset::compile(dataset, store),
            counters: None,
            cancel: None,
        }
    }

    /// The lazily-decoding expression scope over one row.
    fn scope<'r>(&'r self, row: &'r [TermId]) -> EncScope<'r> {
        EncScope {
            row,
            layout: self.layout,
            dict: self.dict,
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

/// What a node's walk and every sink answer: go on, stop the whole walk, or
/// fail it. An error is fatal wherever it arises: a cancelled or failing
/// query never yields a truncated result, only the typed error.
pub(crate) type Flow = Result<ControlFlow<()>, SparqlError>;

const CONTINUE: Flow = Ok(ControlFlow::Continue(()));

/// Where a node sends its solutions: the one row buffer with the node's
/// bindings written in, which the callee hands back exactly as it got it.
pub(crate) type Emit<'e> = &'e mut dyn FnMut(&mut [TermId]) -> Flow;

/// A plan node under observation: [`attach`] is the one place a node gets
/// its span and its cancellation poll, the two methods here the one place
/// rows, time and token checks are recorded.
struct Probe<'a> {
    span: Option<Span>,
    token: Option<&'a CancellationToken>,
    /// Units of work left before the next token check.
    countdown: Cell<u32>,
}

fn attach<'a>(ctx: &EncContext<'a>, span: Option<Span>, poll: bool) -> Probe<'a> {
    Probe {
        span,
        token: ctx.cancel.filter(|_| poll),
        countdown: Cell::new(0),
    }
}

impl Probe<'_> {
    /// Counts one unit of the node's work (a quad examined) and checks the
    /// token once every `check_interval` units, the very first included.
    #[inline]
    fn poll(&self) -> Result<(), SparqlError> {
        let Some(token) = self.token else {
            return Ok(());
        };
        let mut left = self.countdown.get();
        if left == 0 {
            left = token.check_interval();
            token.check()?;
        }
        self.countdown.set(left - 1);
        Ok(())
    }

    /// Runs the node's `work` against `emit`. With a span, every row
    /// reaching `emit` counts and the clock stops while `emit` runs: a
    /// span's elapsed time covers the node and the subtree under it, never
    /// what it emits into.
    fn observe(&self, emit: Emit<'_>, work: impl FnOnce(Emit<'_>) -> Flow) -> Flow {
        let Some(span) = &self.span else {
            return work(emit);
        };
        let (mut rows, mut own) = (0, Duration::ZERO);
        let mut clock = Instant::now();
        let flow = work(&mut |row| {
            rows += 1;
            own += clock.elapsed();
            let flow = emit(row);
            clock = Instant::now();
            flow
        });
        span.add_elapsed_ns((own + clock.elapsed()).as_nanos() as u64);
        span.add_rows(rows);
        flow
    }
}

// ---- the executor walk -----------------------------------------------------------

/// An opened plan node: the node's parts beside the probes observing them.
enum Op<'a> {
    /// Nested index scans, in planned order.
    Bgp(Vec<(&'a EncTriplePattern, Probe<'a>)>),
    Join(Vec<Op<'a>>),
    LeftJoin(Box<Op<'a>>, Box<Op<'a>>, Probe<'a>),
    Union(Box<Op<'a>>, Box<Op<'a>>, Probe<'a>),
    /// The pushed pre-binds, the inner node, the whole condition.
    Filter(
        &'a [(u32, Option<TermId>)],
        Box<Op<'a>>,
        &'a Expression,
        Probe<'a>,
    ),
}

/// Opens `node` under the `parent` span: the one walk over the planned
/// pattern, visiting every node exactly once and creating every span. It
/// makes no ordering decision of its own.
fn open<'a>(ctx: &EncContext<'a>, node: &'a Node, parent: Option<&Span>) -> Op<'a> {
    let child = |name: &str| parent.map(|p| p.child(name));
    match node {
        // `bgp` and `join` are label spans: they group their children and
        // carry no time of their own.
        Node::Bgp(stages) => {
            let order: Vec<u64> = stages.iter().map(|s| s.written_index as u64).collect();
            let bgp = child("bgp").inspect(|bgp| bgp.set_attr("order", order));
            // Every stage polls the token, counting the quads it examines:
            // a join can run for ever while handing nothing downstream (a
            // cross product under a filter that rejects every row), so the
            // work between two polls is bounded where the work is done.
            let stages = stages.iter().map(|stage| {
                let span = bgp.as_ref().map(|bgp| bgp.child("scan")).inspect(|scan| {
                    scan.set_attr("pattern", render_triple_pattern(ctx, &stage.tp));
                    scan.set_attr("written_index", stage.written_index);
                    scan.set_attr("estimate", stage.estimate);
                });
                (&stage.tp, attach(ctx, span, true))
            });
            Op::Bgp(stages.collect())
        }
        Node::Join(parts) => {
            let span = child("join");
            Op::Join(parts.iter().map(|p| open(ctx, p, span.as_ref())).collect())
        }
        Node::LeftJoin { left, right } => {
            let span = child("optional");
            let left = Box::new(open(ctx, left, span.as_ref()));
            let right = Box::new(open(ctx, right, span.as_ref()));
            Op::LeftJoin(left, right, attach(ctx, span, false))
        }
        Node::Union(a, b) => {
            let span = child("union");
            let a = Box::new(open(ctx, a, span.as_ref()));
            let b = Box::new(open(ctx, b, span.as_ref()));
            Op::Union(a, b, attach(ctx, span, false))
        }
        Node::Filter {
            prebind,
            inner,
            condition,
        } => {
            let span = child("filter");
            let span = span.inspect(|span| span.set_attr("pushed_prebinds", prebind.len()));
            let inner = Box::new(open(ctx, inner, span.as_ref()));
            Op::Filter(prebind, inner, condition, attach(ctx, span, false))
        }
    }
}

/// Runs `items` as a chain: `step` runs the first against the row and emits
/// into the rest, the last into `emit`. An empty chain is the identity.
fn chain<T>(
    items: &[T],
    row: &mut [TermId],
    emit: Emit<'_>,
    step: &impl Fn(&T, &mut [TermId], Emit<'_>) -> Flow,
) -> Flow {
    match items {
        [] => emit(row),
        [last] => step(last, row, emit),
        [first, rest @ ..] => step(first, row, &mut |row| chain(rest, row, &mut *emit, step)),
    }
}

impl Op<'_> {
    /// Pushes every solution of this node that extends `row` into `emit`.
    /// A node binds its slots in `row` itself, emits, and un-binds on the
    /// way back, so `row` leaves as it came, whatever the outcome.
    fn run(&self, ctx: &EncContext<'_>, row: &mut [TermId], emit: Emit<'_>) -> Flow {
        match self {
            Op::Bgp(stages) => chain(stages, row, emit, &|(tp, probe), row, emit| {
                probe.observe(emit, |emit| scan(ctx, tp, probe, row, emit))
            }),
            Op::Join(parts) => chain(parts, row, emit, &|part, row, emit| {
                part.run(ctx, row, emit)
            }),
            Op::LeftJoin(left, right, probe) => probe.observe(emit, |emit| {
                left.run(ctx, row, &mut |row| {
                    let mut matched = false;
                    let flow = right.run(ctx, row, &mut |row| {
                        matched = true;
                        emit(row)
                    })?;
                    // Left join: an unmatched left solution survives.
                    if matched {
                        Ok(flow)
                    } else {
                        emit(row)
                    }
                })
            }),
            // Branch a, then branch b: the same multiset as `eval(a) ++
            // eval(b)`, and sequencing is only observable under ORDER BY,
            // where the sort is deterministic.
            Op::Union(a, b, probe) => probe.observe(emit, |emit| {
                if a.run(ctx, row, &mut *emit)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
                b.run(ctx, row, emit)
            }),
            // Pushed-down equality conjuncts pre-bind their slots, so the
            // inner scans treat them as constants; the residual condition
            // still evaluates in full on each survivor.
            Op::Filter(prebind, inner, condition, probe) => probe.observe(emit, |emit| {
                crate::optimize::apply_prebind(prebind, row, &mut |row| {
                    inner.run(ctx, row, &mut |row| {
                        let passes = filter_passes_scoped(condition, &ctx.scope(row))?;
                        if passes {
                            emit(row)
                        } else {
                            CONTINUE
                        }
                    })
                })
            }),
        }
    }
}

// ---- triple-pattern scans --------------------------------------------------------

/// One BGP stage: extends `row` through `tp` by encoded index scans inside
/// the graphs the pattern reads, emitting once per matching quad. A constant
/// uses its pre-compiled id, a variable the row already binds acts as a
/// constant, and an unbound variable leaves its position open for the range
/// scan to bind.
fn scan(
    ctx: &EncContext<'_>,
    tp: &EncTriplePattern,
    probe: &Probe<'_>,
    row: &mut [TermId],
    emit: Emit<'_>,
) -> Flow {
    // The graphs to scan inside: the query's default graphs, or the named
    // graph the pattern is scoped to, if visible.
    let scoped: [TermId; 1];
    let graphs: &[TermId] = match tp.graph {
        EncGraph::Default => &ctx.dataset.default_graphs,
        EncGraph::Named(EncNode::Var(slot)) if row[slot as usize] == UNBOUND => {
            // `GRAPH ?g`, `?g` unbound: one in-graph scan per visible named
            // graph, with `?g` bound to it meanwhile — so a `?g` inside the
            // triple (`GRAPH ?g { ?g ?p ?o }`) is a constant like any bound
            // variable.
            for &g in &ctx.dataset.named_graphs {
                row[slot as usize] = g;
                let flow = scan(ctx, tp, probe, row, emit);
                row[slot as usize] = UNBOUND;
                if flow?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            return CONTINUE;
        }
        EncGraph::Named(node) => {
            let graph = match node {
                EncNode::Const(id) => id,
                EncNode::Var(slot) => Some(row[slot as usize]),
            };
            match graph {
                Some(g) if ctx.dataset.is_named(g) => {
                    scoped = [g];
                    &scoped
                }
                _ => return CONTINUE,
            }
        }
    };
    // The positions this scan binds, as (position, slot), and the ids it
    // looks up.
    let mut open = [(0usize, 0u32); 3];
    let mut opened = 0;
    let mut fixed = [None; 3];
    for (position, node) in tp.nodes().into_iter().enumerate() {
        match node {
            EncNode::Const(None) => return CONTINUE,
            EncNode::Const(Some(id)) => fixed[position] = Some(id),
            EncNode::Var(slot) => match row[slot as usize] {
                UNBOUND => {
                    open[opened] = (position, slot);
                    opened += 1;
                }
                id => fixed[position] = Some(id),
            },
        }
    }
    let [s, p, o] = fixed;
    let within = |g: TermId| ctx.store.matching_quads_encoded_iter(g, s, p, o);
    let open = &open[..opened];
    match graphs {
        [] => CONTINUE,
        &[g] => each_triple(within(g), open, probe, row, emit),
        // A `FROM` merge of two or more graphs: the default graph is their
        // *set* union, so matches go through a dedup set first.
        graphs => {
            let merged: BTreeSet<EncodedTriple> = graphs.iter().flat_map(|&g| within(g)).collect();
            each_triple(merged.into_iter(), open, probe, row, emit)
        }
    }
}

/// The scan loop: every triple is one unit of the stage's work (polled);
/// each binds the `open` positions, emits, and un-binds. Every open slot was
/// unbound on entry, so un-binding resets them all — also after a repeated
/// variable met conflicting ids (`?x ?p ?x`) and nothing was emitted.
#[inline]
fn each_triple(
    triples: impl Iterator<Item = EncodedTriple>,
    open: &[(usize, u32)],
    probe: &Probe<'_>,
    row: &mut [TermId],
    emit: Emit<'_>,
) -> Flow {
    for triple in triples {
        probe.poll()?;
        let ids = [triple.subject, triple.predicate, triple.object];
        let consistent = open.iter().all(|&(position, slot)| {
            let cell = &mut row[slot as usize];
            if *cell == UNBOUND {
                *cell = ids[position];
            }
            *cell == ids[position]
        });
        let flow = if consistent { emit(row) } else { CONTINUE };
        for &(_, slot) in open {
            row[slot as usize] = UNBOUND;
        }
        if flow?.is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    CONTINUE
}

// ---- the plan, opened and run ----------------------------------------------------

/// The spans of the tail's stages, siblings of the pattern's root span in
/// pipeline order. A stage the plan does not have has no span.
#[derive(Default)]
struct TailSpans {
    ask: Option<Span>,
    group: Option<Span>,
    order: Option<Span>,
    project: Option<Span>,
}

/// A plan with its spans created and its probes attached, not yet run.
pub(crate) struct OpenedPlan<'a> {
    root: Op<'a>,
    /// Fails an already-tripped token before the first row.
    start: Probe<'a>,
    spans: TailSpans,
}

/// Opens the whole plan under `parent` without producing a row. This is the
/// only place a plan is opened — [`execute`] runs what it returns,
/// [`crate::optimize::explain`] renders the spans it leaves under `parent`.
pub(crate) fn open_plan<'a>(
    ctx: &EncContext<'a>,
    plan: &'a Plan<'_>,
    parent: Option<&Span>,
) -> OpenedPlan<'a> {
    let root = open(ctx, &plan.root, parent);
    let stage = |name: &str| parent.map(|parent| parent.child(name));
    let spans = match &plan.tail {
        Tail::Ask => TailSpans {
            ask: stage("ask"),
            ..TailSpans::default()
        },
        Tail::Select(select) => TailSpans {
            ask: None,
            group: select.group.as_ref().and_then(|Group::Hash(_)| {
                stage("group").inspect(|span| span.set_attr("strategy", "hash"))
            }),
            order: select.order.as_ref().and_then(|order| {
                stage("order").inspect(|span| match order {
                    Order::Stream => span.set_attr("strategy", "stream"),
                    Order::TopK(k) => {
                        span.set_attr("strategy", "topk");
                        span.set_attr("k", *k);
                    }
                    Order::Sort => span.set_attr("strategy", "sort"),
                })
            }),
            project: stage("project"),
        },
    };
    OpenedPlan {
        root,
        start: attach(ctx, None, true),
        spans,
    }
}

/// Runs a plan: opens it once and drives the pattern's solutions into the
/// plan's tail, a sink that copies out of the borrowed row only what it
/// keeps. With `span` set (tracing on) every node and tail stage reports
/// under it, and it times the run itself, not the opening.
pub(crate) fn execute(
    ctx: &EncContext<'_>,
    plan: &Plan<'_>,
    span: Option<&Span>,
) -> Result<QueryResults, SparqlError> {
    let OpenedPlan { root, start, spans } = open_plan(ctx, plan, span);
    let drive = |emit: Emit<'_>| -> Flow {
        start.poll()?;
        root.run(ctx, &mut ctx.layout.empty_row(), emit)
    };
    timed(span, || match &plan.tail {
        // The first solution settles it: the walk breaks iff there is one.
        Tail::Ask => {
            let mut first = |_: &mut [TermId]| Ok(ControlFlow::Break(()));
            let flow = timed(spans.ask.as_ref(), || drive(&mut first))?;
            Ok(QueryResults::Ask(flow.is_break()))
        }
        Tail::Select(select) => run_select(ctx, select, &spans, drive).map(QueryResults::Select),
    })
}

/// The SELECT tails. A tail span wraps the drive it consumes, so the first
/// stage's time includes the pattern's.
fn run_select(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    spans: &TailSpans,
    drive: impl FnOnce(Emit<'_>) -> Flow,
) -> Result<SelectResults, SparqlError> {
    let query = select.query;
    let (offset, limit) = (query.offset.unwrap_or(0), query.limit);
    let results = if let Some(Group::Hash(slots)) = &select.group {
        let mut results = project_grouped(ctx, select, slots, drive, spans)?;
        // Post-aggregation row counts are small; DISTINCT/OFFSET/LIMIT run
        // in the Term domain here.
        timed(spans.project.as_ref(), || {
            distinct_cut(&mut results.rows, select.distinct, offset, limit)
        });
        results
    } else {
        // The project stage, a sink over encoded rows — the pattern's own,
        // or the order stage's: `DISTINCT` on the projected columns (ids
        // looked up as a borrowed slice, copied only when new), `OFFSET`,
        // `LIMIT`, the decode of exactly the page's rows, and `Break` with
        // the row that completes the page.
        let (variables, columns) = compile_projection(select.projection, ctx.layout);
        let target = limit.map_or(usize::MAX, |limit| offset.saturating_add(limit));
        let (mut seen_ids, mut seen_terms) = (IdSet::default(), HashSet::new());
        let (mut projected_ids, mut passed, mut rows) = (Vec::new(), 0, Vec::new());
        let mut project = |row: &[TermId]| -> Flow {
            let projected = match &columns {
                Columns::Slots(slots) => {
                    let ids = slots.iter().map(|&s| row[s as usize]);
                    if select.distinct {
                        projected_ids.clear();
                        projected_ids.extend(ids.clone());
                        if seen_ids.contains(projected_ids.as_slice()) {
                            return CONTINUE;
                        }
                        seen_ids.insert(projected_ids.clone());
                    }
                    // The single point where variable columns materialize.
                    (passed >= offset).then(|| {
                        ids.map(|id| (id != UNBOUND).then(|| ctx.dict.term(id).clone()))
                            .collect()
                    })
                }
                Columns::Mixed(items) => {
                    let projected = project_mixed(ctx, items, row)?;
                    if select.distinct && !seen_terms.insert(projected.clone()) {
                        return CONTINUE;
                    }
                    (passed >= offset).then_some(projected)
                }
            };
            rows.extend(projected);
            passed += 1;
            Ok(match passed >= target {
                true => ControlFlow::Break(()),
                false => ControlFlow::Continue(()),
            })
        };
        match &select.order {
            // An empty page (`LIMIT 0`) never runs the pattern at all.
            None | Some(Order::Stream) if target == 0 => {}
            None => drop(timed(spans.project.as_ref(), || {
                drive(&mut |row| project(row))
            })?),
            // The rows arrive in order: the order stage only counts them
            // through, and the project stage's `Break` ends the walk.
            Some(Order::Stream) => {
                let mut rows_in = 0u64;
                timed(spans.order.as_ref(), || {
                    drive(&mut |row| {
                        rows_in += 1;
                        project(row)
                    })
                    .map(drop)
                })?;
                if let Some(span) = &spans.order {
                    span.set_attr("rows_in", rows_in);
                    span.add_rows(rows_in);
                }
            }
            Some(order) => {
                let k = match order {
                    Order::TopK(k) => Some(*k),
                    _ => None,
                };
                let ordered = timed(spans.order.as_ref(), || {
                    order_rows(ctx, &query.order_by, k, drive, spans.order.as_ref())
                })?;
                timed(spans.project.as_ref(), || {
                    for (_, row) in &ordered {
                        if target == 0 || project(row)?.is_break() {
                            break;
                        }
                    }
                    Ok::<(), SparqlError>(())
                })?;
            }
        }
        SelectResults { variables, rows }
    };
    if let Some(span) = &spans.project {
        span.add_rows(results.rows.len() as u64);
    }
    Ok(results)
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

/// Projects one row through a Mixed projection (expressions evaluate with
/// lazy decode; results land directly in the Term domain).
fn project_mixed(
    ctx: &EncContext<'_>,
    items: &[ProjectionItem],
    row: &[TermId],
) -> Result<Vec<Option<Term>>, SparqlError> {
    let scope = ctx.scope(row);
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
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = limit {
        rows.truncate(limit);
    }
}

// ---- ordering --------------------------------------------------------------------

/// A kept solution of the order stage: the evaluated `ORDER BY` keys (none
/// when every condition is a plain variable — the row's own ids are the
/// keys then) beside the copied row.
type KeyedRow = (Vec<Option<Term>>, EncRow);

/// The order stage: drives the pattern into the one [`order_solutions`].
/// Plain-variable `ORDER BY` conditions resolve to slots once and compare
/// ids, so nothing decodes before projection; a row is tested against the
/// heap's maximum while still borrowed, and copied only if it gets in.
fn order_rows(
    ctx: &EncContext<'_>,
    order_by: &[OrderCondition],
    k: Option<usize>,
    drive: impl FnOnce(Emit<'_>) -> Flow,
    span: Option<&Span>,
) -> Result<Vec<KeyedRow>, SparqlError> {
    // `LIMIT 0`: nothing to keep, and the pattern never runs.
    if k == Some(0) {
        return Ok(Vec::new());
    }
    let slots: Option<Vec<u32>> = order_by
        .iter()
        .map(|cond| match &cond.expr {
            Expression::Variable(v) => ctx.layout.slot_of(v),
            _ => None,
        })
        .collect();
    let keys_of = |row: &[TermId]| match slots {
        Some(_) => Vec::new(),
        None => order_keys(order_by, &ctx.scope(row)),
    };
    type View<'v> = (&'v [Option<Term>], &'v [TermId]);
    let compare = |(ka, ra): View<'_>, (kb, rb): View<'_>| {
        compare_ordered(
            order_by,
            |i| match &slots {
                Some(slots) => compare_ids(ctx.dict, ra[slots[i] as usize], rb[slots[i] as usize]),
                None => ka[i].cmp(&kb[i]),
            },
            || compare_rows_tiebreak(ctx, ra, rb),
        )
    };
    let mut rows_in = 0u64;
    let kept = order_solutions(
        k,
        &|a: &KeyedRow, b: &KeyedRow| compare((&a.0, &a.1), (&b.0, &b.1)),
        |sorter| {
            drive(&mut |row| {
                rows_in += 1;
                let keys = keys_of(row);
                let gets_in = sorter
                    .admits(|worst| compare((&keys, row), (&worst.0, &worst.1)) == Ordering::Less);
                if gets_in {
                    sorter.keep(|kept| {
                        kept.0 = keys;
                        kept.1.clear();
                        kept.1.extend_from_slice(row);
                    });
                }
                CONTINUE
            })
            .map(drop)
        },
    )?;
    if let Some(span) = span {
        span.set_attr("rows_in", rows_in);
        span.add_rows(kept.len() as u64);
    }
    Ok(kept)
}

/// Two `ORDER BY` keys held as ids, under `Option<Term>`'s order: unbound
/// first, then the term order. Interning is injective, so equal ids are
/// equal terms; below the dictionary's `sorted_len` ids are numbered in term
/// order, so two such ids compare as integers; only the rest look their
/// terms up.
fn compare_ids(dict: &TermDictionary, a: TermId, b: TermId) -> Ordering {
    let sorted = dict.sorted_len() as u64;
    if u64::from(a.max(b)) < sorted {
        return a.cmp(&b);
    }
    let term = |id: TermId| (id != UNBOUND).then(|| dict.term(id));
    match a == b {
        true => Ordering::Equal,
        false => term(a).cmp(&term(b)),
    }
}

/// The whole-row tie-break of `ORDER BY` over encoded rows: `Binding`'s own
/// order (variable names, then the term order — what
/// [`crate::eval::order_bindings`] breaks ties by) without building the
/// map. Slots are walked in variable-name order, unbound ones skipped, ids
/// compared first and terms looked up only where they differ.
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
                // Distinct ids never compare `Equal`: the term order ties
                // only equal terms.
                match compare_ids(ctx.dict, a[sa as usize], b[sb as usize]) {
                    Ordering::Equal => {}
                    ord => return ord,
                }
            }
        }
    }
}

// ---- id hashing ------------------------------------------------------------------

/// A hash map keyed by store-assigned ids (see [`IdHasher`]).
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A hash set of store-assigned ids (see [`IdHasher`]).
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// An Fx-style multiplicative hasher for keys made of [`TermId`]s — one
/// rotate, xor and multiply per word where SipHash runs its rounds. It does
/// not resist crafted collisions, and needs not: its keys are dense ids the
/// store assigned, not bytes from outside the program.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    /// The multiplier of rustc's `FxHasher`: odd, its bits well spread.
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// A multiply mixes only upwards, and a table picks its bucket from the
    /// low bits: the rotate brings the mixed high bits down, so two-id keys
    /// that differ only in their second id still land apart.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

// ---- grouped evaluation ----------------------------------------------------------

/// What one aggregate has folded of one group so far. Only the fields its
/// function reads are ever touched; the untouched ones hold no allocation.
#[derive(Default)]
struct Accumulator {
    /// `DISTINCT`: the values already folded — ids while the argument is a
    /// plain variable, terms once an expression had to compute them.
    seen_ids: IdSet<TermId>,
    seen_terms: HashSet<Term>,
    /// `COUNT`: values folded.
    count: usize,
    /// `MIN` / `MAX`: the running best under the term order.
    best: Option<Term>,
    /// `SUM` / `AVG`: the numeric values, kept so the sum folds in sorted
    /// order at the end — a pure function of the multiset, whatever order
    /// the rows arrived in.
    numbers: Vec<f64>,
}

/// An aggregate column of a grouped projection, its argument resolved once.
struct Aggregate<'q> {
    func: AggregateFunction,
    distinct: bool,
    /// `None` is `agg(*)`: every solution counts, as the literal `1`.
    arg: Option<&'q Expression>,
    /// The argument's slot when it is a plain variable: such values dedup as
    /// ids, and `COUNT` never looks a term up.
    slot: Option<u32>,
}

impl Aggregate<'_> {
    /// Folds one solution of the group into `acc`.
    fn fold(
        &self,
        ctx: &EncContext<'_>,
        row: &[TermId],
        acc: &mut Accumulator,
    ) -> Result<(), SparqlError> {
        let computed;
        let (repeated, term) = match (self.slot, self.arg) {
            (Some(slot), _) => match row[slot as usize] {
                UNBOUND => return Ok(()),
                id => (self.distinct && !acc.seen_ids.insert(id), ctx.dict.term(id)),
            },
            (None, None) if self.func == AggregateFunction::Count && !self.distinct => {
                acc.count += 1;
                return Ok(());
            }
            (None, arg) => {
                computed = match arg {
                    None => Some(Term::Literal(hbold_rdf_model::Literal::integer(1))),
                    Some(expr) => evaluate_scoped(expr, &ctx.scope(row))?.into_term(),
                };
                match &computed {
                    Some(term) => (self.distinct && !acc.seen_terms.insert(term.clone()), term),
                    None => return Ok(()),
                }
            }
        };
        if repeated {
            return Ok(());
        }
        let wanted = match self.func {
            AggregateFunction::Count => {
                acc.count += 1;
                return Ok(());
            }
            AggregateFunction::Sum | AggregateFunction::Avg => {
                acc.numbers.extend(numeric_value(term));
                return Ok(());
            }
            AggregateFunction::Min => Ordering::Less,
            AggregateFunction::Max => Ordering::Greater,
        };
        if acc
            .best
            .as_ref()
            .is_none_or(|best| term.cmp(best) == wanted)
        {
            acc.best = Some(term.clone());
        }
        Ok(())
    }

    /// The aggregate's value over a finished group.
    fn finish(&self, acc: Accumulator) -> Option<Term> {
        match self.func {
            AggregateFunction::Count => Some(number_term(acc.count as f64)),
            AggregateFunction::Sum | AggregateFunction::Avg => {
                Some(aggregate_numbers(self.func, acc.numbers))
            }
            AggregateFunction::Min | AggregateFunction::Max => acc.best,
        }
    }
}

/// The group and order stages of a grouped/aggregated projection
/// ([`Group::Hash`]). The group stage is a sink of per-group accumulators: a
/// solution is looked up by its key — the `GROUP BY` slots' ids, hashed as a
/// borrowed slice and copied once per *group* — and folded into that group's
/// aggregates on the spot; no solution is kept. With no `GROUP BY` there is
/// exactly one group, even if it is empty. Group *output* evaluation decodes
/// into Term-domain bindings, where ORDER BY over aggregate aliases lives.
/// Groups leave in first-encounter order; only `ORDER BY` pins one.
fn project_grouped(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    group_slots: &[u32],
    drive: impl FnOnce(Emit<'_>) -> Flow,
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
    let aggregates: Vec<Aggregate<'_>> = items
        .iter()
        .filter_map(|item| match item {
            ProjectionItem::Expression {
                expr:
                    Expression::Aggregate {
                        func,
                        distinct,
                        arg,
                    },
                ..
            } => Some(Aggregate {
                func: *func,
                distinct: *distinct,
                arg: arg.as_deref(),
                slot: match arg.as_deref() {
                    Some(Expression::Variable(name)) => ctx.layout.slot_of(name),
                    _ => None,
                },
            }),
            _ => None,
        })
        .collect();
    let fresh =
        || -> Vec<Accumulator> { aggregates.iter().map(|_| Accumulator::default()).collect() };

    let grouped_bindings = timed(spans.group.as_ref(), || {
        let mut index: IdMap<Vec<TermId>, usize> = IdMap::default();
        let mut groups: Vec<(Vec<TermId>, Vec<Accumulator>)> = Vec::new();
        if group_slots.is_empty() {
            groups.push((Vec::new(), fresh()));
        }
        let mut key: Vec<TermId> = Vec::with_capacity(group_slots.len());
        drive(&mut |row| {
            let group = if group_slots.is_empty() {
                0
            } else {
                key.clear();
                key.extend(group_slots.iter().map(|&s| row[s as usize]));
                match index.get(key.as_slice()) {
                    Some(&group) => group,
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key.clone(), fresh()));
                        groups.len() - 1
                    }
                }
            };
            for (aggregate, acc) in aggregates.iter().zip(&mut groups[group].1) {
                aggregate.fold(ctx, row, acc)?;
            }
            CONTINUE
        })
        .map(drop)?;
        // Evaluate each group into an output binding so ORDER BY can see
        // aliases. Group boundaries are this path's batch boundaries: one
        // token poll per group.
        groups
            .into_iter()
            .map(|(key, accs)| {
                if let Some(token) = ctx.cancel {
                    token.check()?;
                }
                let finished = aggregates.iter().zip(accs).map(|(a, acc)| a.finish(acc));
                evaluate_group(ctx, items, group_slots, &key, finished)
            })
            .collect::<Result<Vec<Binding>, SparqlError>>()
    })?;
    if let Some(span) = &spans.group {
        span.set_attr("groups", grouped_bindings.len());
        span.add_rows(grouped_bindings.len() as u64);
    }

    let ordered = timed(spans.order.as_ref(), || {
        order_bindings(&select.query.order_by, grouped_bindings)
    })?;
    if let Some(span) = &spans.order {
        span.set_attr("rows_in", ordered.len());
        span.add_rows(ordered.len() as u64);
    }
    let (variables, _) = compile_projection(select.projection, ctx.layout);
    let rows = ordered
        .iter()
        .map(|b| variables.iter().map(|v| b.get(v).cloned()).collect())
        .collect();
    Ok(SelectResults { variables, rows })
}

/// Evaluates one finished group into its Term-domain output binding;
/// `aggregates` yields the values of the projection's aggregate columns, in
/// column order.
fn evaluate_group(
    ctx: &EncContext<'_>,
    items: &[ProjectionItem],
    group_slots: &[u32],
    key: &[TermId],
    mut aggregates: impl Iterator<Item = Option<Term>>,
) -> Result<Binding, SparqlError> {
    // A synthetic row binding exactly the group-key slots: non-aggregate
    // expressions in the projection see the key (and nothing else), the
    // same visibility the Term-domain key binding used to give them.
    let mut key_row = ctx.layout.empty_row();
    for (i, &slot) in group_slots.iter().enumerate() {
        key_row[slot as usize] = key[i];
    }
    let key_scope = ctx.scope(&key_row);

    let mut out = Binding::new();
    for item in items {
        let (name, value) = match item {
            // Grouped by construction: `project_grouped` checked up front.
            ProjectionItem::Variable(v) => (v, key_scope.term(v)),
            ProjectionItem::Expression {
                expr: Expression::Aggregate { .. },
                alias,
            } => (alias, aggregates.next().flatten()),
            ProjectionItem::Expression { expr, alias } => {
                (alias, evaluate_scoped(expr, &key_scope)?.into_term())
            }
        };
        if let Some(term) = value {
            out.insert(name.clone(), term);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// `GROUP BY ?p ?c` over one predicate: 1 024 keys sharing their first
    /// id must still spread over the low bits a table of 2 048 buckets picks
    /// from — about as well as random hashing (≈ 806 buckets). Without the
    /// final rotate they would all land in one.
    #[test]
    fn id_hashes_spread_keys_that_differ_only_in_their_last_id() {
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let buckets = |hashes: &mut dyn Iterator<Item = u64>| -> usize {
            hashes.map(|h| h & 2047).collect::<HashSet<u64>>().len()
        };
        let pairs = buckets(&mut (0..1024u32).map(|c| hasher.hash_one([7, c].as_slice())));
        let singles = buckets(&mut (0..1024u32).map(|id| hasher.hash_one(id)));
        assert!(
            pairs > 700 && singles > 700,
            "{pairs} and {singles} buckets"
        );
    }
}
