//! The dictionary-encoded execution domain: slot layouts, `TermId` rows and
//! the executor.
//!
//! The one thing this module runs is a `Plan` (see [`crate::optimize`]): one
//! tree of `optimize::Node`s, planned in a single walk straight from the
//! parsed pattern. Each node is built with its trace span and cancellation
//! poll already attached (`attach` is the one place either is made), so
//! `execute` only walks the tree, *pushing* the pattern's solutions into the
//! plan's tail (ask, group, top-k, sort, project), and then settles the span
//! tree's arithmetic.
//!
//! **One row.** At evaluation start each query's variables are compiled
//! into a dense [`SlotLayout`]: every variable the query mentions anywhere
//! gets one fixed slot index. A solution is a fixed-width `[TermId]` with the
//! sentinel [`UNBOUND`] marking unbound slots — and the whole walk shares a
//! single such buffer. `Node::run(row, emit)` binds a node's slots in the
//! row, calls `emit` with it, and un-binds when `emit` returns, so the call
//! stack is the undo log and no solution is ever copied to be handed on: a
//! BGP is nested index scans, a join nests `run`s, a left join emits the
//! left row itself when its right side emitted nothing, a union runs both
//! branches, a filter pre-binds, tests and restores. `emit` answers `Flow`:
//! `Continue`, `Break` (how `ASK` and an unordered `LIMIT` stop the walk
//! early) or the error that fails the query.
//!
//! **Every scan reads inside one graph.** The query's dataset resolves once,
//! into two graph lists (`EncDataset`): the default graphs a plain pattern
//! reads and the named graphs `GRAPH` can see. A scan stage (`Stage`)
//! probes the store inside each graph of its scope; `GRAPH ?g` with `?g`
//! unbound is a loop over the named list that binds `?g` and runs the stage
//! as if it had been bound all along.
//!
//! **A stage prepares its scans; a row probes them.** Which of a pattern's
//! subject, predicate and object a row binds — its bound mask — fixes the
//! index, the graph's run in it and the key layout
//! (`TripleStore::prepare_scan`). A stage resolves them the first time a row
//! of a mask arrives and keeps them, at most one per mask (under `OPTIONAL`
//! the mask can differ per row), beside where each open key component goes
//! in the row. A row's probe is then a jump in the run's directory: it
//! yields one window's pairs, whose shared components are written into the
//! row once per window while each pair writes the rest ("leaves read
//! windows"); where churn reaches into the probed range it yields the merged
//! scan, key by key.
//!
//! **Sinks copy what they keep.** The tail stages receive the borrowed row:
//! the group stage folds it into per-group accumulators and keeps nothing
//! (its key read in place by the one flat `KeyTable`, which the project
//! stage's `DISTINCT` keys through too; a `COUNT` tests its slot and adds),
//! the order stage tests it against the top-k heap's maximum before copying
//! it, the project stage decodes the rows of the page. A group stage the
//! planner chose to count (`Group::Count`) walks no row at all: its count
//! is read off the index directory. Everything up to
//! there operates on identifiers (two terms compare by reference in the
//! dictionary where ids differ); the dictionary is consulted only where
//! lexical values are genuinely needed (expression evaluation, aggregate
//! arithmetic), and full [`Term`] rows materialize exactly once, at the
//! [`SelectResults`] boundary.
//!
//! The naive reference evaluator (`hbold_sparql_check::reference`)
//! deliberately stays in the Term domain, so the differential oracle keeps
//! checking this whole module against an implementation that shares none
//! of it.

use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use hbold_rdf_model::Term;
use hbold_telemetry::Span;
use hbold_triple_store::{
    IndexOrder, PrefixScan, PreparedScan, TermDictionary, TermId, TripleStore, DEFAULT_GRAPH,
};

use crate::ast::*;
use crate::cancel::CancellationToken;
use crate::error::SparqlError;
use crate::eval::{
    aggregate_numbers, compare_ordered, order_bindings, order_keys, order_solutions,
};
use crate::expr::{
    evaluate_scoped, filter_passes_scoped, number_term, numeric_value, Binding, EvalValue, Scope,
};
use crate::optimize::{Group, Node, Order, Plan, Select, Tail, TailSpans};
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

// ---- compiled triple patterns ----------------------------------------------------

/// One position of an encoded triple pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EncNode {
    /// A constant term, pre-resolved against the store dictionary.
    /// `None` means the term was never interned: the pattern matches
    /// nothing, decided at compile time without touching an index.
    Const(Option<TermId>),
    /// A variable, addressed by its slot.
    Var(u32),
}

/// The graph a triple pattern is scoped to, in the encoded domain. `GRAPH`
/// groups plan *away*: every triple pattern inside a `GRAPH g { ... }`
/// carries `Named(g)` here, everything else carries `Default`, and the
/// plan tree itself has no graph node.
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

/// Everything an encoded operator needs, bundled for cheap threading through
/// the pipeline.
pub(crate) struct EncContext<'a> {
    pub store: &'a TripleStore,
    pub dict: &'a TermDictionary,
    pub layout: &'a SlotLayout,
    /// The query dataset (`FROM`/`FROM NAMED`), resolved to graph ids.
    pub dataset: EncDataset,
    /// Cooperative cancellation token for this evaluation, polled through
    /// the probes [`attach`] makes — before the first row, and by every scan
    /// stage as it examines quads — and at group boundaries by the grouped
    /// tail. `None` (the default) adds no per-row work.
    pub cancel: Option<&'a crate::cancel::CancellationToken>,
}

impl<'a> EncContext<'a> {
    /// A context for one query over `store`, its dataset resolved, with no
    /// token attached.
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
            cancel: None,
        }
    }

    /// Compiles one position of a triple pattern: a constant to its id
    /// (`None`: never interned, the scan is statically empty), a variable
    /// to its slot.
    pub(crate) fn node(&self, node: &TermOrVariable) -> EncNode {
        match node {
            TermOrVariable::Term(t) => EncNode::Const(self.dict.id_of(t)),
            TermOrVariable::Variable(v) => EncNode::Var(
                self.layout
                    .slot_of(v)
                    .expect("layout covers all pattern variables"),
            ),
        }
    }

    /// Compiles a parsed triple pattern, scoped to `graph`.
    pub(crate) fn compile(&self, tp: &TriplePatternAst, graph: EncGraph) -> EncTriplePattern {
        EncTriplePattern {
            subject: self.node(&tp.subject),
            predicate: self.node(&tp.predicate),
            object: self.node(&tp.object),
            graph,
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
pub(crate) fn render_triple_pattern(ctx: &EncContext<'_>, tp: &EncTriplePattern) -> String {
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
pub(crate) struct Probe<'a> {
    span: Option<Span>,
    token: Option<&'a CancellationToken>,
    /// Units of work left before the next token check.
    countdown: Cell<u32>,
}

pub(crate) fn attach<'a>(ctx: &EncContext<'a>, span: Option<Span>, poll: bool) -> Probe<'a> {
    Probe {
        span,
        token: ctx.cancel.filter(|_| poll),
        countdown: Cell::new(0),
    }
}

impl Probe<'_> {
    /// The node's span, when tracing is on.
    pub(crate) fn span(&self) -> Option<&Span> {
        self.span.as_ref()
    }

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

impl<'p> Node<'p> {
    /// The probes of every stage under this node so far, by kind (see
    /// [`Stage::probes`]).
    pub(crate) fn probes(&self) -> [u64; 2] {
        let add = |[w, m]: [u64; 2], [dw, dm]: [u64; 2]| [w + dw, m + dm];
        match self {
            Node::Bgp(stages) => stages.iter().map(Stage::probes).fold([0, 0], add),
            Node::Join(parts) => parts.iter().map(Node::probes).fold([0, 0], add),
            Node::LeftJoin { left, right, .. } | Node::Union(left, right, _) => {
                add(left.probes(), right.probes())
            }
            Node::Filter { inner, .. } => inner.probes(),
        }
    }

    /// Pushes every solution of this node that extends `row` into `emit`.
    /// A node binds its slots in `row` itself, emits, and un-binds on the
    /// way back, so `row` leaves as it came, whatever the outcome.
    pub(crate) fn run(&self, ctx: &EncContext<'p>, row: &mut [TermId], emit: Emit<'_>) -> Flow {
        match self {
            Node::Bgp(stages) => chain(stages, row, emit, &|stage, row, emit| {
                stage.probe.observe(emit, |emit| stage.run(ctx, row, emit))
            }),
            Node::Join(parts) => chain(parts, row, emit, &|part, row, emit| {
                part.run(ctx, row, emit)
            }),
            Node::LeftJoin { left, right, probe } => probe.observe(emit, |emit| {
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
            Node::Union(a, b, probe) => probe.observe(emit, |emit| {
                if a.run(ctx, row, &mut *emit)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
                b.run(ctx, row, emit)
            }),
            // Pushed-down equality conjuncts pre-bind their slots, so the
            // inner scans treat them as constants; the residual condition
            // still evaluates in full on each survivor.
            Node::Filter {
                prebind,
                inner,
                condition,
                probe,
            } => probe.observe(emit, |emit| {
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

/// One BGP stage: its compiled pattern, the probe that observes it, and the
/// store scans it has prepared — at most one per bound mask (which of the
/// subject, predicate and object the row binds), made the first time a row
/// of that mask arrives: boundness can differ per row under `OPTIONAL`.
pub(crate) struct Stage<'p> {
    pub tp: EncTriplePattern,
    pub probe: Probe<'p>,
    /// The graph the stage reads, resolved against the query's dataset.
    graph: StageGraph,
    /// The bound mask's bits of the constant positions (bit `i` for
    /// position `i`: subject, predicate, object), and the slots of the
    /// variable ones.
    constants: usize,
    vars: [Option<u32>; 3],
    shapes: [OnceCell<Shape<'p>>; 8],
    /// Probes answered by the flat tier's windows, and by the merged scan.
    probes: [Cell<u64>; 2],
}

/// Where a stage reads, resolved once against the query's dataset.
#[derive(Clone, Copy)]
enum StageGraph {
    /// One graph, whatever the row: its scans are prepared once per shape.
    One(TermId),
    /// No graph, or a constant the store never interned: the pattern
    /// matches nothing.
    Nothing,
    /// The query's default graph merges two or more `FROM` graphs.
    Merged,
    /// `GRAPH ?g`: the graph is the slot's, bound or looped over.
    Var(u32),
}

/// A stage's scans for one bound mask: the index key's layout against the
/// row, and — when the stage reads one graph — the prepared scan itself.
struct Shape<'p> {
    scan: Option<PreparedScan<'p>>,
    /// Where the ids of the bound key components come from, in key order
    /// (the open ones read 0).
    key: [Source; 3],
    /// Which of subject, predicate and object are bound.
    bound: [bool; 3],
    /// What each key component after the graph does to the row: nothing
    /// (bound), or binds or tests a slot.
    binds: [Bind; 3],
}

/// Where a bound key component's id comes from.
#[derive(Clone, Copy)]
enum Source {
    Id(TermId),
    Slot(u32),
}

/// What an open key component does to the row.
#[derive(Clone, Copy, PartialEq)]
enum Bind {
    /// The component is bound: the probe matched it already.
    Bound,
    /// Writes the component's id into the slot.
    Write(u32),
    /// A variable repeated in the pattern (`?x ?p ?x`): the id must equal
    /// the one an earlier component wrote.
    Check(u32),
}

impl Bind {
    /// Applies the component's `id` to the row: `false` when a repeated
    /// variable meets another id.
    #[inline(always)]
    fn set(self, row: &mut [TermId], id: TermId) -> bool {
        match self {
            Bind::Bound => true,
            Bind::Write(slot) => {
                row[slot as usize] = id;
                true
            }
            Bind::Check(slot) => row[slot as usize] == id,
        }
    }
}

impl<'p> Stage<'p> {
    /// The stage of `tp`, observed by `probe`.
    pub(crate) fn new(ctx: &EncContext<'p>, tp: EncTriplePattern, probe: Probe<'p>) -> Stage<'p> {
        let graph = match tp.graph {
            EncGraph::Default => match ctx.dataset.default_graphs.as_slice() {
                [] => StageGraph::Nothing,
                &[g] => StageGraph::One(g),
                _ => StageGraph::Merged,
            },
            EncGraph::Named(EncNode::Const(Some(g))) if ctx.dataset.is_named(g) => {
                StageGraph::One(g)
            }
            EncGraph::Named(EncNode::Const(_)) => StageGraph::Nothing,
            EncGraph::Named(EncNode::Var(slot)) => StageGraph::Var(slot),
        };
        let nodes = tp.nodes();
        // A constant the store never interned: the scan is statically empty.
        let graph = match nodes.contains(&EncNode::Const(None)) {
            true => StageGraph::Nothing,
            false => graph,
        };
        let constants = (0..3)
            .filter(|&i| matches!(nodes[i], EncNode::Const(_)))
            .fold(0, |mask, i| mask | 1 << i);
        Stage {
            tp,
            probe,
            graph,
            constants,
            vars: nodes.map(|node| match node {
                EncNode::Var(slot) => Some(slot),
                EncNode::Const(_) => None,
            }),
            shapes: Default::default(),
            probes: Default::default(),
        }
    }

    /// How many of this stage's probes one window of the flat tier
    /// answered, and how many the merged scan (churn in the probed range).
    pub(crate) fn probes(&self) -> [u64; 2] {
        self.probes.each_ref().map(Cell::get)
    }

    /// The shape of the bound `mask` (bit `i`: position `i` — subject,
    /// predicate, object — is bound), prepared.
    fn shape(&self, ctx: &EncContext<'p>, mask: usize) -> Shape<'p> {
        let bound = [0, 1, 2].map(|i| mask & 1 << i != 0);
        let (order, _) = IndexOrder::for_pattern(bound);
        let nodes = self.tp.nodes();
        let mut shape = Shape {
            scan: match self.graph {
                StageGraph::One(g) => Some(ctx.store.prepare_scan(g, bound)),
                _ => None,
            },
            key: [Source::Id(0); 3],
            bound,
            binds: [Bind::Bound; 3],
        };
        for (i, position) in order.positions().into_iter().enumerate() {
            match nodes[position] {
                EncNode::Const(id) => shape.key[i] = Source::Id(id.unwrap_or(0)),
                EncNode::Var(slot) if bound[position] => shape.key[i] = Source::Slot(slot),
                EncNode::Var(slot) => {
                    let written = shape.binds[..i].contains(&Bind::Write(slot));
                    shape.binds[i] = match written {
                        true => Bind::Check(slot),
                        false => Bind::Write(slot),
                    };
                }
            }
        }
        shape
    }

    /// Extends `row` through the stage's pattern, emitting once per
    /// matching quad of the graphs it reads. A constant uses its
    /// pre-compiled id, a variable the row already binds acts as a constant,
    /// and an unbound variable leaves its position open for the probe to
    /// bind.
    fn run(&self, ctx: &EncContext<'p>, row: &mut [TermId], emit: Emit<'_>) -> Flow {
        let graph = match self.graph {
            StageGraph::Nothing => return CONTINUE,
            // `GRAPH ?g`, `?g` unbound: one in-graph scan per visible named
            // graph, with `?g` bound to it meanwhile — so a `?g` inside the
            // triple (`GRAPH ?g { ?g ?p ?o }`) is a constant like any bound
            // variable.
            StageGraph::Var(slot) if row[slot as usize] == UNBOUND => {
                for &g in &ctx.dataset.named_graphs {
                    row[slot as usize] = g;
                    let flow = self.run(ctx, row, emit);
                    row[slot as usize] = UNBOUND;
                    if flow?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                return CONTINUE;
            }
            StageGraph::Var(slot) => match row[slot as usize] {
                g if ctx.dataset.is_named(g) => Some(g),
                _ => return CONTINUE,
            },
            StageGraph::One(_) | StageGraph::Merged => None,
        };
        let mut mask = self.constants;
        for (i, slot) in self.vars.into_iter().enumerate() {
            if let Some(slot) = slot {
                mask |= usize::from(row[slot as usize] != UNBOUND) << i;
            }
        }
        let shape = self.shapes[mask].get_or_init(|| self.shape(ctx, mask));
        let key = shape.key.map(|source| match source {
            Source::Id(id) => id,
            Source::Slot(slot) => row[slot as usize],
        });
        let flow = self.probe_graphs(ctx, shape, graph, key, row, emit);
        // Every slot the stage wrote was unbound on entry.
        for bind in shape.binds {
            if let Bind::Write(slot) = bind {
                row[slot as usize] = UNBOUND;
            }
        }
        flow
    }

    /// Probes the graphs the stage reads — its one prepared graph, the
    /// row's `graph`, or the `FROM` merge — with the bound ids `key`.
    #[inline]
    fn probe_graphs(
        &self,
        ctx: &EncContext<'p>,
        shape: &Shape<'p>,
        graph: Option<TermId>,
        key: [TermId; 3],
        row: &mut [TermId],
        emit: Emit<'_>,
    ) -> Flow {
        match (&shape.scan, graph) {
            (Some(scan), _) => self.walk(shape, scan.probe(key), row, emit),
            (None, Some(g)) => {
                let scan = ctx.store.prepare_scan(g, shape.bound).probe(key);
                self.walk(shape, scan, row, emit)
            }
            // A `FROM` merge of two or more graphs: the default graph is
            // their *set* union, so matches go through a dedup set first.
            (None, None) => {
                let keys: BTreeSet<(TermId, TermId, TermId)> = ctx
                    .dataset
                    .default_graphs
                    .iter()
                    .flat_map(move |&g| ctx.store.prepare_scan(g, shape.bound).probe(key))
                    .map(|(_, second, c, d)| (second, c, d))
                    .collect();
                for (second, c, d) in keys {
                    if self.window(shape, second, &[(c, d)], row, emit)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                CONTINUE
            }
        }
    }

    /// The scan loop over one probe's answer: one window of the flat tier
    /// — a probe with its second component bound, on a store without churn
    /// there — or else the scan's keys, each a window of one pair.
    #[inline]
    fn walk(
        &self,
        shape: &Shape<'_>,
        scan: PrefixScan<'_>,
        row: &mut [TermId],
        emit: Emit<'_>,
    ) -> Flow {
        let count = |probes: &Cell<u64>| probes.set(probes.get() + 1);
        if let Some((second, pairs)) = scan.window() {
            count(&self.probes[0]);
            return self.window(shape, second, pairs, row, emit);
        }
        if scan.merges_churn() {
            count(&self.probes[1]);
        }
        for (_, second, c, d) in scan {
            if self.window(shape, second, &[(c, d)], row, emit)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        CONTINUE
    }

    /// One window of a probe ("leaves read windows"): its second component
    /// goes into the row once, then each pair binds the open components
    /// and emits. Every pair is one unit of the stage's work (polled).
    #[inline(always)]
    fn window(
        &self,
        shape: &Shape<'_>,
        second: TermId,
        pairs: &[(TermId, TermId)],
        row: &mut [TermId],
        emit: Emit<'_>,
    ) -> Flow {
        let [by_second, third, fourth] = shape.binds;
        // The second component is bound, or the first open one: never a
        // repeat.
        by_second.set(row, second);
        for &(c, d) in pairs {
            self.probe.poll()?;
            if third.set(row, c) && fourth.set(row, d) && emit(row)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        CONTINUE
    }
}

// ---- the plan, run ---------------------------------------------------------------

/// Runs a plan: drives the pattern's solutions into the plan's tail, a sink
/// that copies out of the borrowed row only what it keeps. With `span` set
/// (tracing on) it times the run, every node and tail stage reports under
/// it, and once the walk is done their times are settled so that a span's
/// children never add up to more than the span.
pub(crate) fn execute<'p>(
    ctx: &EncContext<'p>,
    plan: &Plan<'p>,
    span: Option<&Span>,
) -> Result<QueryResults, SparqlError> {
    // Fails an already-tripped token before the first row.
    let start = attach(ctx, None, true);
    let drive = |emit: Emit<'_>| -> Flow {
        start.poll()?;
        plan.root.run(ctx, &mut ctx.layout.empty_row(), emit)
    };
    let spans = &plan.spans;
    let results = timed(span, || match &plan.tail {
        // The first solution settles it: the walk breaks iff there is one.
        Tail::Ask => {
            let mut first = |_: &mut [TermId]| Ok(ControlFlow::Break(()));
            let flow = timed(spans.ask.as_ref(), || drive(&mut first))?;
            Ok(QueryResults::Ask(flow.is_break()))
        }
        Tail::Select(select) => run_select(ctx, select, spans, drive).map(QueryResults::Select),
    });
    // `execute`'s children are the pattern's root span, then the tail
    // stages: the first drove the pattern and gives its time back.
    if let Some([pattern, driver, ..]) = span.map(|span| span.children()).as_deref() {
        let pattern_ns = settle_labels(pattern);
        driver.set_elapsed_ns(driver.elapsed_ns().saturating_sub(pattern_ns));
    }
    results
}

/// Gives every label span (`bgp`, `join`) of the subtree its children's
/// time, bottom-up, and returns `span`'s time.
fn settle_labels(span: &Span) -> u64 {
    let children: u64 = span.children().iter().map(settle_labels).sum();
    if matches!(span.name(), "bgp" | "join") {
        span.set_elapsed_ns(children);
    }
    span.elapsed_ns()
}

/// The SELECT tails. A tail span wraps the drive it consumes, so until
/// [`execute`] settles it the first stage's time includes the pattern's.
fn run_select(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    spans: &TailSpans,
    drive: impl FnOnce(Emit<'_>) -> Flow,
) -> Result<SelectResults, SparqlError> {
    let query = select.query;
    let (offset, limit) = (query.offset.unwrap_or(0), query.limit);
    let results = if let Some(group) = &select.group {
        let mut results = project_grouped(ctx, select, group, drive, spans)?;
        // Post-aggregation row counts are small; DISTINCT/OFFSET/LIMIT run
        // in the Term domain here.
        timed(spans.project.as_ref(), || {
            distinct_cut(&mut results.rows, select.distinct, offset, limit)
        });
        results
    } else {
        // The project stage, a sink over encoded rows — the pattern's own,
        // or the order stage's: `DISTINCT` on the projected columns (keyed
        // in place in a [`KeyTable`], copied only when new), `OFFSET`,
        // `LIMIT`, the decode of exactly the page's rows, and `Break` with
        // the row that completes the page.
        let (variables, columns) = compile_projection(select.projection, ctx.layout);
        let target = limit.map_or(usize::MAX, |limit| offset.saturating_add(limit));
        let mut seen_ids = match &columns {
            Columns::Slots(slots) => KeyTable::new(slots.len()),
            Columns::Mixed(_) => KeyTable::default(),
        };
        let (mut seen_terms, mut passed, mut rows) = (HashSet::new(), 0, Vec::new());
        let mut project = |row: &[TermId]| -> Flow {
            let projected = match &columns {
                Columns::Slots(slots) => {
                    if select.distinct && !seen_ids.insert(row, slots).1 {
                        return CONTINUE;
                    }
                    let ids = slots.iter().map(|&s| row[s as usize]);
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
                    order_rows(ctx, select, k, drive, spans.order.as_ref())
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
/// `ORDER BY` conditions that are plain pattern variables resolve to slots
/// once and compare ids, so nothing decodes before projection; the others
/// evaluate over the row [`Extended`] by the `SELECT` expressions. A row is
/// tested against the heap's maximum while still borrowed, and copied only
/// if it gets in.
fn order_rows(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    k: Option<usize>,
    drive: impl FnOnce(Emit<'_>) -> Flow,
    span: Option<&Span>,
) -> Result<Vec<KeyedRow>, SparqlError> {
    // `LIMIT 0`: nothing to keep, and the pattern never runs.
    if k == Some(0) {
        return Ok(Vec::new());
    }
    let order_by = &select.query.order_by;
    let slots: Option<Vec<u32>> = order_by
        .iter()
        .map(|cond| match &cond.expr {
            Expression::Variable(v) if select_expression(select.query, v).is_none() => {
                ctx.layout.slot_of(v)
            }
            _ => None,
        })
        .collect();
    let keys_of = |row: &[TermId]| match slots {
        Some(_) => Vec::new(),
        None => {
            let solution = ctx.scope(row);
            order_keys(order_by, &Extended(solution, select.query))
        }
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

/// The expression a `SELECT` item of `query` binds to `alias` (the last,
/// if several do), or `None`.
pub(crate) fn select_expression<'q>(query: &'q Query, alias: &str) -> Option<&'q Expression> {
    let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    else {
        return None;
    };
    items.iter().rev().find_map(|item| match item {
        ProjectionItem::Expression { expr, alias: name } if name == alias => Some(expr),
        _ => None,
    })
}

/// A solution extended by the `SELECT` expressions of a query, as `ORDER BY`
/// sees it (SPARQL orders after it extends): an alias is the value of its
/// expression over the solution, unbound where that errs.
struct Extended<'q, S>(S, &'q Query);

impl<S: Scope> Scope for Extended<'_, S> {
    fn term(&self, name: &str) -> Option<Term> {
        match select_expression(self.1, name) {
            Some(expr) => evaluate_scoped(expr, &self.0)
                .ok()
                .and_then(EvalValue::into_term),
            None => self.0.term(name),
        }
    }
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

/// The group stage's and `DISTINCT`'s one table: a set of keys of `width`
/// ids each, numbered in first-encounter order. A key is read straight off
/// the row's slots — hashed there with [`IdHasher`] and compared there
/// against the keys stored flat — and copied in only when it is new, so the
/// table allocates per key, never per row. Open addressing with linear
/// probing over a power-of-two cell array, at most half full. [`UNBOUND`]
/// is a legal id inside a key, so a free cell is marked in the cells, never
/// in the keys.
#[derive(Default)]
struct KeyTable {
    width: usize,
    /// Key `i` is `keys[i * width..(i + 1) * width]`.
    keys: Vec<TermId>,
    /// How many keys there are (with `width` 0, `keys` cannot tell).
    len: usize,
    /// A key's number, or [`KeyTable::FREE`].
    cells: Vec<u32>,
}

impl KeyTable {
    const FREE: u32 = u32::MAX;

    fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            ..KeyTable::default()
        }
    }

    fn hash(ids: impl Iterator<Item = TermId>) -> u64 {
        let mut hasher = IdHasher::default();
        ids.for_each(|id| hasher.write_u32(id));
        hasher.finish()
    }

    /// The number of the key `slots` pick out of `row`, and whether it is
    /// new.
    #[inline]
    fn insert(&mut self, row: &[TermId], slots: &[u32]) -> (usize, bool) {
        debug_assert_eq!(slots.len(), self.width);
        if 2 * (self.len + 1) > self.cells.len() {
            self.grow();
        }
        let mask = self.cells.len() - 1;
        let mut cell = Self::hash(slots.iter().map(|&s| row[s as usize])) as usize & mask;
        loop {
            let key = self.cells[cell];
            if key == Self::FREE {
                self.cells[cell] = u32::try_from(self.len).expect("fewer than 2^32 keys");
                self.keys.extend(slots.iter().map(|&s| row[s as usize]));
                self.len += 1;
                return (self.len - 1, true);
            }
            let stored = self.key(key as usize);
            if stored
                .iter()
                .zip(slots)
                .all(|(&id, &s)| id == row[s as usize])
            {
                return (key as usize, false);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Doubles the cells (to 8 at first) and places every key again.
    fn grow(&mut self) {
        let cells = (2 * self.cells.len()).max(8);
        self.cells = vec![Self::FREE; cells];
        for key in 0..self.len {
            let mut cell = Self::hash(self.key(key).iter().copied()) as usize & (cells - 1);
            while self.cells[cell] != Self::FREE {
                cell = (cell + 1) & (cells - 1);
            }
            self.cells[cell] = key as u32;
        }
    }

    fn key(&self, key: usize) -> &[TermId] {
        &self.keys[key * self.width..(key + 1) * self.width]
    }

    fn len(&self) -> usize {
        self.len
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
                // A count tests the slot and adds: no term is looked up.
                id if self.func == AggregateFunction::Count => {
                    if !self.distinct || acc.seen_ids.insert(id) {
                        acc.count += 1;
                    }
                    return Ok(());
                }
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
/// (`Select::group`). The group stage is a sink of per-group accumulators:
/// with [`Group::Hash`], a solution is looked up by its key — the `GROUP BY`
/// slots' ids, read in place by the [`KeyTable`], which copies a key once per
/// *group* — and folded into that group's aggregates on the spot; no solution
/// is kept. With no `GROUP BY` there is exactly one group, even if it is
/// empty. With [`Group::Count`] that one group's counts are read off the
/// index directory and no row is walked. Group *output* evaluation decodes
/// into Term-domain bindings, where ORDER BY over aggregate aliases lives.
/// Groups leave in first-encounter order; only `ORDER BY` pins one.
fn project_grouped(
    ctx: &EncContext<'_>,
    select: &Select<'_>,
    group: &Group,
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
    let group_slots: &[u32] = match group {
        Group::Hash(slots) => slots,
        Group::Count(_) => &[],
    };

    let grouped_bindings = timed(spans.group.as_ref(), || {
        // The groups' keys, and their accumulators: group `g`'s are
        // `accs[g * n..(g + 1) * n]`, one per aggregate.
        let mut table = KeyTable::new(group_slots.len());
        let mut accs: Vec<Accumulator> = Vec::new();
        let n = aggregates.len();
        if group_slots.is_empty() {
            table.insert(&[], &[]);
            accs.resize_with(n, Accumulator::default);
        }
        match group {
            Group::Hash(slots) => {
                drive(&mut |row| {
                    let (group, new) = table.insert(row, slots);
                    if new {
                        accs.resize_with(accs.len() + n, Accumulator::default);
                    }
                    for (aggregate, acc) in aggregates.iter().zip(&mut accs[group * n..]) {
                        aggregate.fold(ctx, row, acc)?;
                    }
                    CONTINUE
                })
                .map(drop)?;
            }
            Group::Count(counted) => {
                // Fails an already-tripped token, as the walk would.
                if let Some(token) = ctx.cancel {
                    token.check()?;
                }
                // O(log n) in the directory, for the rows a walk would
                // have folded: every one binds the counted variables.
                let rows = timed(counted.scan.as_ref(), || {
                    counted.quads.map_or(0, |(graph, [s, p, o])| {
                        ctx.store.count_matching_quads_encoded(graph, s, p, o)
                    })
                });
                if let Some(span) = &counted.scan {
                    span.add_rows(rows as u64);
                }
                accs.iter_mut().for_each(|acc| acc.count = rows);
            }
        }
        // Evaluate each group into an output binding so ORDER BY can see
        // aliases. Group boundaries are this path's batch boundaries: one
        // token poll per group.
        let mut accs = accs.into_iter();
        (0..table.len())
            .map(|group| {
                if let Some(token) = ctx.cancel {
                    token.check()?;
                }
                let finished = aggregates
                    .iter()
                    .zip(accs.by_ref().take(n))
                    .map(|(a, acc)| a.finish(acc));
                evaluate_group(ctx, items, group_slots, table.key(group), finished)
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

/// Evaluates one finished group into its Term-domain output binding — its
/// key, and then each `SELECT` expression's alias bound to its value (or
/// unbound where it errs), all of which `ORDER BY` sees; `aggregates`
/// yields the values of the projection's aggregate columns, in column
/// order.
fn evaluate_group(
    ctx: &EncContext<'_>,
    items: &[ProjectionItem],
    group_slots: &[u32],
    key: &[TermId],
    mut aggregates: impl Iterator<Item = Option<Term>>,
) -> Result<Binding, SparqlError> {
    // The key binds the `GROUP BY` variables. Non-aggregate expressions in
    // the projection see it and nothing else, so every value is computed
    // before the first alias is bound.
    let mut out: Binding = (group_slots.iter().zip(key))
        .filter(|&(_, &id)| id != UNBOUND)
        .map(|(&slot, &id)| (ctx.layout.name_of(slot).into(), ctx.dict.term(id).clone()))
        .collect();
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(match item {
            // Grouped by construction (`project_grouped` checked up front),
            // so already bound above.
            ProjectionItem::Variable(_) => continue,
            ProjectionItem::Expression {
                expr: Expression::Aggregate { .. },
                alias,
            } => (alias, aggregates.next().flatten()),
            ProjectionItem::Expression { expr, alias } => {
                (alias, evaluate_scoped(expr, &out)?.into_term())
            }
        });
    }
    for (alias, value) in values {
        match value {
            Some(term) => out.insert(alias.clone(), term),
            None => out.remove(alias),
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, parse_query};
    use hbold_rdf_model::{Iri, Literal, Triple};
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    /// Inserts every key of `keys` (`width` ≥ 1 ids each) and returns the
    /// numbers the table gave them, after checking that a second pass finds
    /// each under the same number.
    fn numbered(width: usize, keys: &[TermId]) -> Vec<usize> {
        let slots: Vec<u32> = (0..width as u32).collect();
        let mut table = KeyTable::new(width);
        let mut numbers = Vec::new();
        for key in keys.chunks(width) {
            numbers.push(table.insert(key, &slots).0);
        }
        for (key, &number) in keys.chunks(width).zip(&numbers) {
            assert_eq!(table.insert(key, &slots), (number, false));
            assert_eq!(table.key(number), &key[..width]);
        }
        assert!(2 * table.len() <= table.cells.len());
        numbers
    }

    #[test]
    fn the_key_table_numbers_keys_in_first_encounter_order_through_its_doublings() {
        // 12 000 distinct two-id keys, each inserted twice in a row: eleven
        // doublings of the cells, every key numbered once.
        let keys: Vec<TermId> = (0..12_000u32).flat_map(|i| [i % 7, i, i % 7, i]).collect();
        let numbers = numbered(2, &keys);
        let first: Vec<usize> = numbers.iter().copied().step_by(2).collect();
        assert_eq!(first, (0..12_000).collect::<Vec<_>>());
        assert!(numbers.chunks(2).all(|pair| pair[0] == pair[1]));
        // Width 0: one key, whatever the row.
        let mut table = KeyTable::new(0);
        assert_eq!(table.insert(&[5, 6], &[]), (0, true));
        assert_eq!(table.insert(&[7], &[]), (0, false));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn unbound_is_a_key_id_like_any_other() {
        // `UNBOUND` is `u32::MAX`, so is a free cell's mark: keys made of
        // it, or ending in it, are keys.
        for width in 1..=3 {
            let keys: Vec<TermId> = [UNBOUND, 0, 1, 2, UNBOUND - 1]
                .into_iter()
                .flat_map(|last| {
                    let mut key = vec![UNBOUND; width];
                    key[width - 1] = last;
                    key
                })
                .collect();
            assert_eq!(numbered(width, &keys), vec![0, 1, 2, 3, 4], "width {width}");
        }
    }

    #[test]
    fn keys_that_differ_only_in_their_last_id_are_kept_apart() {
        let keys: Vec<TermId> = (0..1024u32).flat_map(|c| [7, 7, c]).collect();
        assert_eq!(numbered(3, &keys), (0..1024).collect::<Vec<_>>());
    }

    fn iri(local: &str) -> Iri {
        Iri::new(format!("http://kt.example/{local}")).unwrap()
    }

    fn subject(i: usize) -> Term {
        iri(&format!("s{i}")).into()
    }

    fn class(i: usize) -> Term {
        iri(&format!("C{}", i % 3)).into()
    }

    fn value(i: usize, values: usize) -> Term {
        Literal::string(format!("v{}", i % values)).into()
    }

    fn name(i: usize) -> Option<Term> {
        i.is_multiple_of(4)
            .then(|| Literal::string(format!("n{i}")).into())
    }

    fn count(n: usize) -> Option<Term> {
        Some(number_term(n as f64))
    }

    /// `subjects` subjects, each typed with one of three classes and valued
    /// with one of `values` literals; every fourth also named.
    fn store(subjects: usize, values: usize) -> TripleStore {
        let mut triples = Vec::new();
        for i in 0..subjects {
            triples.push(Triple::new(subject(i), iri("a"), class(i)));
            triples.push(Triple::new(subject(i), iri("v"), value(i, values)));
            if let Some(name) = name(i) {
                triples.push(Triple::new(subject(i), iri("name"), name));
            }
        }
        let mut store = TripleStore::new();
        store.insert_batch(triples.iter());
        store
    }

    /// The engine's rows, after checking them as a multiset against
    /// `reference`: the rows the store's recipe gives, worked out by the
    /// test without the engine.
    fn agreed(
        store: &TripleStore,
        query: &str,
        mut reference: Vec<Vec<Option<Term>>>,
    ) -> Vec<Vec<Option<Term>>> {
        let parsed = parse_query(query).unwrap();
        let engine = evaluate(store, &parsed).unwrap().into_select().unwrap();
        let mut rows = engine.rows.clone();
        rows.sort();
        reference.sort();
        assert_eq!(rows, reference, "{query}");
        engine.rows
    }

    #[test]
    fn ten_thousand_groups_agree_with_the_reference() {
        let store = store(10_000, 10);
        let rows = agreed(
            &store,
            "SELECT ?s (COUNT(*) AS ?n) (MIN(?t) AS ?least) WHERE { ?s <http://kt.example/a> ?t } \
             GROUP BY ?s",
            (0..10_000)
                .map(|i| vec![Some(subject(i)), count(1), Some(class(i))])
                .collect(),
        );
        assert_eq!(rows.len(), 10_000);
        // The same keys through the project stage's `DISTINCT`.
        let rows = agreed(
            &store,
            "SELECT DISTINCT ?s WHERE { ?s ?p ?o }",
            (0..10_000).map(|i| vec![Some(subject(i))]).collect(),
        );
        assert_eq!(rows.len(), 10_000);
    }

    #[test]
    fn group_keys_of_every_width_agree_with_the_reference() {
        let store = store(60, 4);
        // The pattern's solutions as `[?t, ?o, ?s]`, so a key of width `w`
        // is a solution's first `w` terms.
        let solutions: Vec<[Term; 3]> = (0..60)
            .map(|i| [class(i), value(i, 4), subject(i)])
            .collect();
        for (width, groups) in [1, 3, 12, 60].into_iter().enumerate() {
            let keys = ["?t", "?o", "?s"][..width].join(" ");
            let group_by = match width {
                0 => String::new(),
                _ => format!(" GROUP BY {keys}"),
            };
            let query = format!(
                "SELECT {keys} (COUNT(?s) AS ?n) (COUNT(DISTINCT ?o) AS ?d) (MAX(?o) AS ?m) \
                 WHERE {{ ?s <http://kt.example/a> ?t . ?s <http://kt.example/v> ?o }}{group_by}"
            );
            let mut members: BTreeMap<&[Term], Vec<&Term>> = BTreeMap::new();
            for solution in &solutions {
                members
                    .entry(&solution[..width])
                    .or_default()
                    .push(&solution[1]);
            }
            let reference = members
                .into_iter()
                .map(|(key, objects)| {
                    let distinct: BTreeSet<&Term> = objects.iter().copied().collect();
                    let mut row: Vec<Option<Term>> = key.iter().cloned().map(Some).collect();
                    row.push(count(objects.len()));
                    row.push(count(distinct.len()));
                    row.push(distinct.last().map(|&o| o.clone()));
                    row
                })
                .collect();
            assert_eq!(agreed(&store, &query, reference).len(), groups, "{query}");
        }
        // A key named twice is a key of width two.
        let rows = agreed(
            &store,
            "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s <http://kt.example/a> ?t } GROUP BY ?t ?t",
            (0..3).map(|c| vec![Some(class(c)), count(20)]).collect(),
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn a_key_that_optional_leaves_unbound_is_a_group() {
        let store = store(40, 4);
        // Three in four subjects have no name: one group per name, plus
        // the unbound name's group per class.
        let mut sizes: BTreeMap<(Term, Option<Term>), usize> = BTreeMap::new();
        for i in 0..40 {
            *sizes.entry((class(i), name(i))).or_default() += 1;
        }
        let rows = agreed(
            &store,
            "SELECT ?t ?n (COUNT(*) AS ?c) WHERE { ?s <http://kt.example/a> ?t \
             OPTIONAL { ?s <http://kt.example/name> ?n } } GROUP BY ?t ?n",
            sizes
                .into_iter()
                .map(|((t, n), size)| vec![Some(t), n, count(size)])
                .collect(),
        );
        assert_eq!(rows.len(), 10 + 3);
        let rows = agreed(
            &store,
            "SELECT ?n (COUNT(?n) AS ?c) WHERE { ?s <http://kt.example/a> ?t \
             OPTIONAL { ?s <http://kt.example/name> ?n } } GROUP BY ?n",
            (0..40)
                .filter_map(|i| name(i).map(|n| vec![Some(n), count(1)]))
                .chain([vec![None, count(0)]])
                .collect(),
        );
        assert!(rows.contains(&vec![None, Some(number_term(0.0))]));
    }

    #[test]
    fn groups_and_distinct_rows_leave_in_first_encounter_order() {
        let store = store(90, 7);
        let plain = agreed(
            &store,
            "SELECT ?o WHERE { ?s <http://kt.example/v> ?o }",
            (0..90).map(|i| vec![Some(value(i, 7))]).collect(),
        );
        let mut first = Vec::new();
        for row in plain {
            if !first.contains(&row[0]) {
                first.push(row[0].clone());
            }
        }
        assert_eq!(first.len(), 7);
        // 90 = 12 · 7 + 6 subjects: the first six values hold one more.
        let grouped = agreed(
            &store,
            "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <http://kt.example/v> ?o } GROUP BY ?o",
            (0..7)
                .map(|k| vec![Some(value(k, 7)), count(if k < 6 { 13 } else { 12 })])
                .collect(),
        );
        let grouped: Vec<_> = grouped.into_iter().map(|row| row[0].clone()).collect();
        assert_eq!(grouped, first);
        let distinct = agreed(
            &store,
            "SELECT DISTINCT ?o WHERE { ?s <http://kt.example/v> ?o }",
            (0..7).map(|k| vec![Some(value(k, 7))]).collect(),
        );
        let distinct: Vec<_> = distinct.into_iter().map(|row| row[0].clone()).collect();
        assert_eq!(distinct, first);
    }

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
        // The key table hashes a key in place, with no length in front.
        let in_place = buckets(&mut (0..1024u32).map(|c| KeyTable::hash([7, c].into_iter())));
        assert!(
            pairs > 700 && singles > 700 && in_place > 700,
            "{pairs}, {singles} and {in_place} buckets"
        );
    }
}
