//! Statistics-driven cost-based optimization: one walk from the parsed
//! pattern to the tree the executor runs.
//!
//! The extraction queries at the heart of H-BOLD are multi-pattern BGP
//! joins, and join order dominates their cost: scanning a hub predicate
//! first can materialize thousands of intermediate rows that a rare
//! predicate would have pruned to a handful. `plan_pattern` walks the
//! parsed pattern once, before execution: it compiles each triple pattern
//! as its BGP is planned, passes a `GRAPH` scope down to the patterns under
//! it, and gives each node its trace span and cancellation poll as it builds
//! it. The `Plan` — scans, joins, left joins, unions, filters with their
//! pushed pre-binds, plus the tail chosen from the query's form and
//! solution modifiers — is the tree `encoded::execute` walks, so
//! "planned before run" holds by type. [`explain`] plans under its outline
//! span and never runs. Planning decides:
//!
//! * **Cardinality estimation** — every triple pattern's constant prefix is
//!   counted *exactly*, graph by graph over the graphs it reads, against the
//!   store's graph-first GSPO/GPOS/GOSP indexes (a binary search and a
//!   gallop per count, churn tiers included; see
//!   `TripleStore::count_matching_quads_encoded`), and positions occupied by
//!   already-bound variables divide that count by a distinct-value estimate
//!   for the position read inside one graph, yielding the expected rows *per
//!   input row*.
//! * **Greedy cheapest-next-join ordering** — the planner repeatedly picks
//!   the connected pattern with the smallest estimate (ties broken by a
//!   shape score, then by lowest pattern index).
//!   Patterns with unbound variables and no link to the bound ones are
//!   deferred while any connected pattern remains, so cartesian products
//!   cannot be chosen by a cheap-looking estimate.
//! * **Equality-filter pushdown** — a top-level `FILTER` conjunct of the
//!   form `?v = <iri>` pre-binds `?v`'s slot before the filtered pattern
//!   scans, so pruning happens during the index walk instead of after row
//!   construction. Pushdown only fires when it provably cannot change
//!   results: the constant must be an IRI (term equality, never value
//!   coercion), the variable must be bound in *every* solution of the inner
//!   pattern, and the whole condition must be statically unable to raise an
//!   evaluation error (see `cannot_raise` in this module) — the residual
//!   filter still runs, so pushdown only removes rows it would reject anyway.
//! * **The tail** — `ASK` stops at the first solution; aggregates fold into
//!   per-group accumulators keyed on the `GROUP BY` ids (no `GROUP BY`: one
//!   group), or, over a lone triple pattern read in one graph under nothing
//!   but row counts, are *counted* off the index directory with no row
//!   walked (`counted_scan`), and the group stage then emits one row per
//!   group; an `ORDER BY` a pattern's rows already arrive in *streams*
//!   (below), `ORDER BY … LIMIT` without `DISTINCT` keeps a top-k heap —
//!   over a pattern's rows or a group stage's alike —, any other `ORDER BY`
//!   sorts; everything ends in the project stage.
//! * **Interesting orders** (System R's term) — each scan stage is one
//!   range of one index per input row, so it emits its open variables
//!   sorted by id in that index's key order, and nested stages emit the
//!   concatenation. After a fresh load, ids *are* `Term::cmp` order (see
//!   `hbold_triple_store::dictionary`), so when the `ORDER BY` keys are
//!   exactly those variables, ascending, over one BGP of one graph, and the
//!   store has interned nothing since, the order stage is `Order::Stream`:
//!   rows pass through, and the project stage stops the walk after
//!   `OFFSET + LIMIT` of them. The rule is decided here, against the store
//!   being planned; the executor has no fallback to take.
//!
//! The planning pass runs exactly once per evaluation and is the only
//! consumer-facing source of join orders: there is no second strategy and
//! no option selecting one.
//!
//! The optimizer can change plans, never results: the differential fuzz
//! harness evaluates every generated query under the cost-based order *and*
//! under seeded random join orders, imposed through
//! [`crate::EvalHooks::join_order`], against the naive reference (see
//! `hbold_sparql_check::fuzz`).

use std::fmt;
use std::ops::ControlFlow;
use std::sync::OnceLock;

use hbold_rdf_model::Term;
use hbold_telemetry::{Counter, Registry, Span};
use hbold_triple_store::{IndexOrder, TermId, TripleStore};

use crate::ast::{
    AggregateFunction, ComparisonOp, Expression, Function, GraphPattern, Projection,
    ProjectionItem, Query, QueryForm,
};
use crate::encoded::{
    attach, render_triple_pattern, select_expression, EncContext, EncNode, EncTriplePattern, Probe,
    Stage,
};
use crate::encoded::{Emit, EncDataset, EncGraph, Flow, SlotLayout, UNBOUND};

// ---- decision counters ------------------------------------------------------------

/// The optimizer's decision counters, registered once in the process-wide
/// telemetry registry: `/metrics` is where they are read. One evaluation's
/// own decisions are in its trace (the `plan` span's `bgps` and
/// `pushed_filters`, each scan's `written_index`).
pub(crate) struct OptimizerCounters {
    bgps_planned: Counter,
    bgps_reordered: Counter,
    filters_pushed: Counter,
}

pub(crate) fn counters() -> &'static OptimizerCounters {
    static COUNTERS: OnceLock<OptimizerCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = Registry::global();
        OptimizerCounters {
            bgps_planned: reg.counter(
                "hbold_optimizer_bgps_planned_total",
                "Basic graph patterns planned.",
                &[],
            ),
            bgps_reordered: reg.counter(
                "hbold_optimizer_bgps_reordered_total",
                "BGPs whose execution order differs from their written order.",
                &[],
            ),
            filters_pushed: reg.counter(
                "hbold_optimizer_filters_pushed_total",
                "Equality-filter conjuncts pushed down into scans.",
                &[],
            ),
        }
    })
}

// ---- the plan value --------------------------------------------------------------

/// A node of the planned pattern pipeline, the tree the executor walks.
/// Every node extends each solution it is given into zero or more; the root
/// is given the empty row. A node's `probe` observes it.
pub(crate) enum Node<'p> {
    /// Nested index scans, in execution order: each compiled pattern beside
    /// the probe that times its `scan` span and polls the token, and the
    /// store scans it prepares (see [`Stage`]).
    Bgp(Vec<Stage<'p>>),
    /// The parts, each fed by the one before.
    Join(Vec<Node<'p>>),
    /// `OPTIONAL`: `right` runs once per `left` row; an unmatched row survives.
    LeftJoin {
        left: Box<Node<'p>>,
        right: Box<Node<'p>>,
        probe: Probe<'p>,
    },
    /// Each input row through the first branch, then the second.
    Union(Box<Node<'p>>, Box<Node<'p>>, Probe<'p>),
    Filter {
        /// Equality conjuncts pushed down: `(slot, id)` pre-binds the slot
        /// on every input row before `inner` scans (`None` id means the
        /// constant was never interned — no row can match). Sound only
        /// under the conditions [`extract_prebinds`] checks.
        prebind: Vec<(u32, Option<TermId>)>,
        inner: Box<Node<'p>>,
        /// The whole condition, evaluated on every row `inner` yields.
        condition: &'p Expression,
        probe: Probe<'p>,
    },
}

/// How a SELECT's `ORDER BY` runs.
pub(crate) enum Order {
    /// The rows already arrive in `ORDER BY` order (see [`stream_order`]):
    /// the stage passes them on as they come, and the project stage stops
    /// the walk after `OFFSET + LIMIT` of them.
    Stream,
    /// A bounded heap of the `OFFSET + LIMIT` smallest rows.
    TopK(usize),
    /// Materialize and sort.
    Sort,
}

/// A SELECT tail. The stages it has run in this order: group, order, then
/// project (projection, `DISTINCT`, `OFFSET`/`LIMIT`, decode), which every
/// SELECT ends in.
pub(crate) struct Select<'q> {
    /// Source of the modifiers the stages read as written: `ORDER BY`
    /// conditions, `GROUP BY` names, `OFFSET`, `LIMIT`.
    pub query: &'q Query,
    pub projection: &'q Projection,
    pub distinct: bool,
    pub group: Option<Group>,
    pub order: Option<Order>,
}

/// How a grouped SELECT's group stage gets its groups.
pub(crate) enum Group {
    /// Per-group accumulators, found in the group table by these `GROUP BY`
    /// slots' ids (none: the one group). A solution is folded into its
    /// group's aggregates as it arrives; no solution is kept.
    Hash(Vec<u32>),
    /// One group whose every aggregate counts the rows of the lone scan
    /// (see [`counted_scan`]): their number is read off the index directory,
    /// and no row is walked.
    Count(Counted),
}

/// A lone scan, resolved for [`Group::Count`].
pub(crate) struct Counted {
    /// The one graph the scan reads and its constant ids (`None` for a
    /// variable position) — or `None` when the scan reads no graph or has a
    /// constant the store never interned, and matches nothing.
    pub quads: Option<(TermId, [Option<TermId>; 3])>,
    /// The scan's span: it reports the rows the count stands for.
    pub scan: Option<Span>,
}

/// What consumes the pattern pipeline's solutions.
pub(crate) enum Tail<'q> {
    /// `ASK`: the first solution settles it.
    Ask,
    Select(Select<'q>),
}

/// The spans of the tail's stages, siblings of the pattern's root span in
/// pipeline order. A stage the plan does not have has no span.
#[derive(Default)]
pub(crate) struct TailSpans {
    pub ask: Option<Span>,
    pub group: Option<Span>,
    pub order: Option<Span>,
    pub project: Option<Span>,
}

/// A planned query: the only thing [`crate::encoded::execute`] runs, and
/// what [`explain`] and the `plan` / `execute` trace spans are read off.
pub(crate) struct Plan<'p> {
    pub root: Node<'p>,
    pub tail: Tail<'p>,
    pub spans: TailSpans,
    /// The decision record of every BGP, in planning order.
    pub bgps: Vec<BgpPlan>,
    /// Number of equality-filter conjuncts pushed down into scans.
    pub pushed_filters: usize,
}

// ---- per-query explain surface ---------------------------------------------------

/// The optimizer's decision record for one BGP.
#[derive(Debug, Clone)]
pub struct BgpPlan {
    /// Execution order, as indexes into the BGP's written pattern list.
    pub order: Vec<usize>,
    /// Estimated rows produced per input row for each chosen pattern,
    /// parallel to `order`.
    pub estimates: Vec<u64>,
}

/// A per-query report of the optimizer's decisions. Its `Display` is the
/// planned pipeline, one node per line with its attributes — the span tree
/// a traced execution fills in, before any row is pulled.
#[derive(Debug, Clone)]
pub struct PlanExplanation {
    /// One entry per BGP, in planning (execution) order.
    pub bgps: Vec<BgpPlan>,
    /// Number of equality-filter conjuncts pushed down into scans.
    pub pushed_filters: usize,
    outline: Span,
}

impl fmt::Display for PlanExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.outline
            .children()
            .iter()
            .try_for_each(|node| write!(f, "{node}"))
    }
}

/// Plans `query` against `store` and returns the decisions without
/// executing anything. The planning pass is the real one, so the optimizer
/// counters on `/metrics` advance.
pub fn explain(store: &TripleStore, query: &Query) -> PlanExplanation {
    let layout = SlotLayout::of_query(query);
    let ctx = EncContext::new(store, &layout, &query.dataset);
    // The span tree an execution would time: planned, never run.
    let outline = Span::root("explain");
    let plan = plan_pattern(&ctx, query, None, Some(&outline));
    PlanExplanation {
        bgps: plan.bgps,
        pushed_filters: plan.pushed_filters,
        outline,
    }
}

// ---- the planning pass -----------------------------------------------------------

/// A join-order override: given a BGP's cost-based order, returns the order
/// to execute instead (a permutation of it). See
/// [`crate::EvalHooks::join_order`].
type BgpReorder<'a> = &'a dyn Fn(Vec<usize>) -> Vec<usize>;

/// Plans `query` in one walk over its parsed pattern: compiles every triple
/// pattern, puts every BGP's patterns in execution order, pushes every
/// eligible equality filter down, chooses the tail from the query's form
/// and solution modifiers, and gives every node and tail stage its span
/// under `parent` (tracing on) and its cancellation poll. Runs exactly once
/// per evaluation, before any operator runs.
pub(crate) fn plan_pattern<'p>(
    ctx: &EncContext<'p>,
    query: &'p Query,
    reorder: Option<BgpReorder<'_>>,
    parent: Option<&Span>,
) -> Plan<'p> {
    // A plan under an imposed join order never streams or counts: it is
    // what those answers are checked against.
    let imposed = reorder.is_some();
    let mut planner = Planner {
        ctx,
        reorder,
        bgps: Vec::new(),
        pushed_filters: 0,
    };
    let mut bound = vec![false; ctx.layout.len()];
    let root = planner.node(&query.pattern, EncGraph::Default, &mut bound, parent);
    let streamed = (!imposed).then(|| stream_order(ctx, &root)).flatten();
    let counted = (!imposed)
        .then(|| counted_scan(ctx, query, &root))
        .flatten();
    let (tail, spans) = plan_tail(ctx, query, streamed, counted, parent);
    Plan {
        root,
        tail,
        spans,
        bgps: planner.bgps,
        pushed_filters: planner.pushed_filters,
    }
}

/// One planning walk: what its nodes are planned against, and the decision
/// record it leaves.
struct Planner<'a, 'p, 'r> {
    ctx: &'a EncContext<'p>,
    reorder: Option<BgpReorder<'r>>,
    bgps: Vec<BgpPlan>,
    pushed_filters: usize,
}

impl<'p> Planner<'_, 'p, '_> {
    /// Plans `pattern`, scoped to `graph`, given the slots in `bound`, and
    /// marks every slot the pattern can bind — mirroring exactly the
    /// bound-slot propagation the operators perform, so estimates describe
    /// the rows each operator will actually see. A node's span goes under
    /// `parent` before its children's, so the span tree is in planning
    /// order, which is execution order.
    fn node(
        &mut self,
        pattern: &'p GraphPattern,
        graph: EncGraph,
        bound: &mut Vec<bool>,
        parent: Option<&Span>,
    ) -> Node<'p> {
        let ctx = self.ctx;
        let child = |name: &str| parent.map(|p| p.child(name));
        match pattern {
            GraphPattern::Bgp(tps) => {
                let tps: Vec<EncTriplePattern> =
                    tps.iter().map(|tp| ctx.compile(tp, graph)).collect();
                let (mut order, mut estimates) =
                    stats_join_order(ctx.store, &ctx.dataset, &tps, bound);
                if let Some(reorder) = self.reorder {
                    order = reorder(order);
                    // Re-estimate along the imposed order, so `estimates`
                    // stays parallel to `order`.
                    let mut seen = bound.clone();
                    estimates = order
                        .iter()
                        .map(|&i| {
                            let estimate =
                                estimate_pattern(ctx.store, &ctx.dataset, &tps[i], &seen);
                            mark_pattern_vars(&tps[i], &mut seen);
                            estimate
                        })
                        .collect();
                }
                counters().bgps_planned.inc();
                if order.iter().enumerate().any(|(i, &idx)| i != idx) {
                    counters().bgps_reordered.inc();
                }
                for tp in &tps {
                    mark_pattern_vars(tp, bound);
                }
                // `bgp` is a label span over its stages. Every stage polls
                // the token, counting the quads it examines: a join can run
                // for ever while handing nothing downstream (a cross product
                // under a filter that rejects every row), so the work
                // between two polls is bounded where the work is done.
                let written: Vec<u64> = order.iter().map(|&i| i as u64).collect();
                let label = child("bgp").inspect(|bgp| bgp.set_attr("order", written));
                let stages = order.iter().zip(&estimates).map(|(&i, &estimate)| {
                    let span = label.as_ref().map(|bgp| bgp.child("scan"));
                    let span = span.inspect(|scan| {
                        scan.set_attr("pattern", render_triple_pattern(ctx, &tps[i]));
                        scan.set_attr("written_index", i);
                        scan.set_attr("estimate", estimate);
                    });
                    Stage::new(ctx, tps[i], attach(ctx, span, true))
                });
                let stages: Vec<_> = stages.collect();
                self.bgps.push(BgpPlan { order, estimates });
                Node::Bgp(stages)
            }
            GraphPattern::Join(parts) => {
                let span = child("join");
                let parts = parts
                    .iter()
                    .map(|p| self.node(p, graph, bound, span.as_ref()));
                Node::Join(parts.collect())
            }
            GraphPattern::Optional { left, right } => {
                // The right side runs per left row, so it plans with the
                // left side's bindings visible.
                let span = child("optional");
                let left = Box::new(self.node(left, graph, bound, span.as_ref()));
                let right = Box::new(self.node(right, graph, bound, span.as_ref()));
                let probe = attach(ctx, span, false);
                Node::LeftJoin { left, right, probe }
            }
            GraphPattern::Union(a, b) => {
                // Each branch sees only the bindings from *before* the
                // union; afterwards either branch may have bound its
                // variables.
                let span = child("union");
                let mut bound_a = bound.clone();
                let a = Box::new(self.node(a, graph, &mut bound_a, span.as_ref()));
                let b = Box::new(self.node(b, graph, bound, span.as_ref()));
                for (slot, a_bound) in bound.iter_mut().zip(bound_a) {
                    *slot |= a_bound;
                }
                Node::Union(a, b, attach(ctx, span, false))
            }
            GraphPattern::Filter { inner, condition } => {
                let prebind = extract_prebinds(ctx, condition, inner, graph, bound);
                self.pushed_filters += prebind.len();
                let span = child("filter");
                let span = span.inspect(|span| span.set_attr("pushed_prebinds", prebind.len()));
                let inner = Box::new(self.node(inner, graph, bound, span.as_ref()));
                let probe = attach(ctx, span, false);
                Node::Filter {
                    prebind,
                    inner,
                    condition,
                    probe,
                }
            }
            // A `GRAPH` node plans away: its scope goes down to every
            // triple pattern under it.
            GraphPattern::Graph { name, inner } => {
                let graph = EncGraph::Named(ctx.node(name));
                self.node(inner, graph, bound, parent)
            }
        }
    }
}

/// Chooses the tail from the query's form and solution modifiers, and —
/// for an ungrouped `ORDER BY` — from `streamed`, the order the pattern's
/// rows arrive in ([`stream_order`]), and for aggregates from `counted`, the
/// lone scan they can read their counts off ([`counted_scan`]); its stages'
/// spans go under `parent`, after the pattern's. One rule orders a
/// pattern's rows and a group stage's alike: top-k under a `LIMIT` without
/// `DISTINCT`, else a sort; only a pattern's rows can stream.
fn plan_tail<'p>(
    ctx: &EncContext<'_>,
    query: &'p Query,
    streamed: Option<Vec<u32>>,
    counted: Option<Counted>,
    parent: Option<&Span>,
) -> (Tail<'p>, TailSpans) {
    let stage = |name: &str| parent.map(|parent| parent.child(name));
    let QueryForm::Select {
        distinct,
        projection,
    } = &query.form
    else {
        let spans = TailSpans {
            ask: stage("ask"),
            ..TailSpans::default()
        };
        return (Tail::Ask, spans);
    };
    let grouped = query.uses_aggregates() || !query.group_by.is_empty();
    let group = grouped.then(|| match counted {
        Some(counted) => Group::Count(counted),
        None => Group::Hash(
            query
                .group_by
                .iter()
                .map(|v| {
                    ctx.layout
                        .slot_of(v)
                        .expect("layout covers group variables")
                })
                .collect(),
        ),
    });
    let sort = (!query.order_by.is_empty()).then_some(Order::Sort);
    let order = match (sort, query.limit) {
        // Only a pattern's rows can arrive in order.
        (Some(_), _) if !grouped && streams(ctx, query, streamed) => Some(Order::Stream),
        // DISTINCT dedupes *projected rows* before LIMIT applies, so
        // top-k over unprojected rows could come up short — full sort in
        // that case.
        (Some(_), Some(limit)) if !*distinct => {
            Some(Order::TopK(query.offset.unwrap_or(0).saturating_add(limit)))
        }
        (sort, _) => sort,
    };
    let spans = TailSpans {
        ask: None,
        group: group.as_ref().and_then(|group| {
            stage("group").inspect(|span| match group {
                Group::Hash(_) => span.set_attr("strategy", "hash"),
                Group::Count(_) => span.set_attr("strategy", "count"),
            })
        }),
        order: order.as_ref().and_then(|order| {
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
    };
    let select = Select {
        query,
        projection,
        distinct: *distinct,
        group,
        order,
    };
    (Tail::Select(select), spans)
}

// ---- interesting orders ----------------------------------------------------------

/// The variables a planned pattern's rows arrive sorted by — by id, in
/// this order of precedence — or `None` when the pattern has no such order
/// to offer.
///
/// Only one shape has one: a single BGP, possibly under a `FILTER` (whose
/// pushed pre-binds are bound before the first scan, and whose test drops
/// rows without reordering them), reading exactly one graph — the query's
/// default graph, when that is one graph: a `FROM` merge dedups through a
/// set, and `GRAPH` scopes are left to the general path. Each scan stage is
/// one index range per input row ([`IndexOrder::for_pattern`]), so it emits
/// its open variables sorted in the index's key order, and nested scans
/// emit the concatenation: the first stage's variables, then the second's,
/// and so on. A variable met again is already bound and adds nothing.
fn stream_order(ctx: &EncContext<'_>, root: &Node) -> Option<Vec<u32>> {
    let (prebind, stages): (&[(u32, Option<TermId>)], _) = match root {
        Node::Bgp(stages) => (&[], stages),
        Node::Filter { prebind, inner, .. } => match inner.as_ref() {
            Node::Bgp(stages) => (prebind, stages),
            _ => return None,
        },
        _ => return None,
    };
    let one_graph = ctx.dataset.default_graphs.len() == 1
        && stages
            .iter()
            .all(|stage| matches!(stage.tp.graph, EncGraph::Default));
    if !one_graph {
        return None;
    }
    let mut bound = vec![false; ctx.layout.len()];
    for &(slot, _) in prebind {
        bound[slot as usize] = true;
    }
    let mut emitted = Vec::new();
    for Stage { tp, .. } in stages {
        let nodes = tp.nodes();
        let fixed = nodes.map(|node| match node {
            EncNode::Const(_) => true,
            EncNode::Var(slot) => bound[slot as usize],
        });
        for &position in IndexOrder::for_pattern(fixed).1 {
            if let EncNode::Var(slot) = nodes[position] {
                if !bound[slot as usize] {
                    bound[slot as usize] = true;
                    emitted.push(slot);
                }
            }
        }
    }
    Some(emitted)
}

/// `true` when `ORDER BY` may stream: every condition is an ascending plain
/// variable that no `SELECT` expression binds, the list is exactly the
/// variables the rows arrive sorted by (`streamed`, in that order) — so two
/// rows never tie and the whole-row tie-break has nothing left to decide —
/// and every id of the store is in term order, so sorted by id is sorted by
/// `Term::cmp`. Decided here, once: the executor has no fallback to take.
fn streams(ctx: &EncContext<'_>, query: &Query, streamed: Option<Vec<u32>>) -> bool {
    let Some(streamed) = streamed else {
        return false;
    };
    let keys: Option<Vec<u32>> = query
        .order_by
        .iter()
        .map(|cond| match &cond.expr {
            Expression::Variable(v)
                if !cond.descending && select_expression(query, v).is_none() =>
            {
                ctx.layout.slot_of(v)
            }
            _ => None,
        })
        .collect();
    keys == Some(streamed) && ctx.dict.sorted_len() == ctx.dict.len()
}

// ---- counts off the directory ----------------------------------------------------

/// The lone scan whose rows an aggregate tail only counts, resolved so its
/// count can be read off the index directory
/// (`TripleStore::count_matching_quads_encoded`) — or `None` when the
/// query's answer needs the rows walked.
///
/// Only one shape counts: a single BGP of one triple pattern (no `FILTER`,
/// no other node) reading at most one graph — the query's default graph
/// when that is one graph or none (a `FROM` merge of two is a set union the
/// count would over-count), or `GRAPH <g>` (`GRAPH ?g` loops over graphs) —
/// with no variable repeated in it (`?x ?p ?x` matches fewer quads than its
/// prefix counts), under an ungrouped projection of non-`DISTINCT` counts
/// only: each `COUNT(*)` or `COUNT(?v)` of a variable the pattern binds, so
/// every row counts once in each. Decided here, once: the executor has no
/// fallback to take.
fn counted_scan(ctx: &EncContext<'_>, query: &Query, root: &Node) -> Option<Counted> {
    let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &query.form
    else {
        return None;
    };
    let Node::Bgp(stages) = root else {
        return None;
    };
    let [Stage { tp, probe, .. }] = stages.as_slice() else {
        return None;
    };
    let slots: Vec<u32> = pattern_var_slots(tp).collect();
    let repeated = (1..slots.len()).any(|i| slots[..i].contains(&slots[i]));
    if !query.group_by.is_empty() || tp.graph_var().is_some() || repeated {
        return None;
    }
    let counts_rows = |item: &ProjectionItem| match item {
        ProjectionItem::Expression {
            expr:
                Expression::Aggregate {
                    func: AggregateFunction::Count,
                    distinct: false,
                    arg,
                },
            ..
        } => match arg.as_deref() {
            None => true,
            Some(Expression::Variable(v)) => {
                ctx.layout.slot_of(v).is_some_and(|s| slots.contains(&s))
            }
            Some(_) => false,
        },
        _ => false,
    };
    if !items.iter().all(counts_rows) {
        return None;
    }
    let graph = match tp.graph {
        EncGraph::Default => match ctx.dataset.default_graphs.as_slice() {
            [] => None,
            &[g] => Some(g),
            _ => return None,
        },
        EncGraph::Named(EncNode::Const(g)) => g.filter(|&g| ctx.dataset.is_named(g)),
        EncGraph::Named(EncNode::Var(_)) => return None,
    };
    let mut ids = [None; 3];
    let mut interned = true;
    for (id, node) in ids.iter_mut().zip(tp.nodes()) {
        match node {
            EncNode::Const(constant) => {
                interned &= constant.is_some();
                *id = constant;
            }
            EncNode::Var(_) => {}
        }
    }
    Some(Counted {
        quads: graph.filter(|_| interned).map(|g| (g, ids)),
        scan: probe.span().cloned(),
    })
}

fn mark_pattern_vars(tp: &EncTriplePattern, bound: &mut [bool]) {
    for slot in pattern_var_slots(tp) {
        bound[slot as usize] = true;
    }
}

/// Every variable slot the pattern binds in a solution: the three triple
/// positions plus the `GRAPH ?g` variable when the pattern is scoped to one
/// (the scan binds the graph slot on every row it yields, so the graph
/// variable participates in connectivity and certain-binding analysis like
/// any triple-position variable).
fn pattern_var_slots(tp: &EncTriplePattern) -> impl Iterator<Item = u32> {
    tp.nodes()
        .into_iter()
        .filter_map(|node| match node {
            EncNode::Var(slot) => Some(slot),
            EncNode::Const(_) => None,
        })
        .chain(tp.graph_var())
}

// ---- cost-based join ordering ----------------------------------------------------

/// Greedy cheapest-next-join ordering: repeatedly pick the *connected*
/// remaining pattern with the smallest cardinality estimate. A pattern is
/// connected when it shares a bound variable with what has been joined so
/// far (or has no unbound variables at all); while any connected pattern
/// remains, disconnected ones are ineligible — a cartesian product is never
/// chosen over a join, no matter how cheap it looks.
///
/// Ties break by the shape score ([`pattern_selectivity`]), then to the
/// lowest pattern index (candidates are scanned in ascending index order
/// and only a strictly better candidate replaces the incumbent), so plans
/// are deterministic.
fn stats_join_order(
    store: &TripleStore,
    dataset: &EncDataset,
    tps: &[EncTriplePattern],
    bound: &[bool],
) -> (Vec<usize>, Vec<u64>) {
    let mut bound = bound.to_vec();
    let mut remaining: Vec<usize> = (0..tps.len()).collect();
    let mut order = Vec::with_capacity(tps.len());
    let mut estimates = Vec::with_capacity(tps.len());
    while !remaining.is_empty() {
        let any_connected = remaining.iter().any(|&idx| is_connected(&tps[idx], &bound));
        let mut best: Option<(usize, u64, i64)> = None; // (pos, estimate, shape score)
        for (pos, &idx) in remaining.iter().enumerate() {
            if any_connected && !is_connected(&tps[idx], &bound) {
                continue;
            }
            let est = estimate_pattern(store, dataset, &tps[idx], &bound);
            let shape = pattern_selectivity(&tps[idx], &bound);
            let better = match best {
                None => true,
                Some((_, best_est, best_shape)) => {
                    est < best_est || (est == best_est && shape > best_shape)
                }
            };
            if better {
                best = Some((pos, est, shape));
            }
        }
        let (pos, est, _) = best.expect("candidate pool is never empty");
        let idx = remaining.remove(pos);
        order.push(idx);
        estimates.push(est);
        mark_pattern_vars(&tps[idx], &mut bound);
    }
    (order, estimates)
}

/// `true` when the pattern joins against the already-bound slots: it
/// mentions a bound variable, or has no unbound variables at all.
fn is_connected(tp: &EncTriplePattern, bound: &[bool]) -> bool {
    let mut has_bound_var = false;
    let mut has_unbound_var = false;
    for slot in pattern_var_slots(tp) {
        if bound[slot as usize] {
            has_bound_var = true;
        } else {
            has_unbound_var = true;
        }
    }
    has_bound_var || !has_unbound_var
}

/// Expected number of rows this pattern produces *per input row*, given the
/// bound slots.
///
/// The constant positions are counted exactly against the store indexes,
/// graph by graph over the pattern's graph scope — the query's default
/// graphs (the store's default graph, or the `FROM` graphs), `GRAPH <g>`'s
/// one graph, or every visible named graph for `GRAPH ?g`. Each position
/// occupied by a bound variable then divides the count by a distinct-value
/// estimate for that position read inside the scope's largest graph
/// (conditioned on a constant neighbor when one exists — e.g. a bound
/// subject under a constant object divides by the distinct subjects *of that
/// object*); a bound graph variable divides by the number of visible named
/// graphs. The estimate is clamped to at least 1 unless the graph scope or
/// constant prefix matches nothing.
fn estimate_pattern(
    store: &TripleStore,
    dataset: &EncDataset,
    tp: &EncTriplePattern,
    bound: &[bool],
) -> u64 {
    let mut consts: [Option<TermId>; 3] = [None; 3];
    let mut bound_var = [false; 3];
    for (i, node) in tp.nodes().into_iter().enumerate() {
        match node {
            EncNode::Const(Some(id)) => consts[i] = Some(id),
            // A constant the store never interned: statically empty scan.
            EncNode::Const(None) => return 0,
            EncNode::Var(slot) if bound[slot as usize] => bound_var[i] = true,
            EncNode::Var(_) => {}
        }
    }
    let scoped: [TermId; 1];
    let (graphs, graph_divisor): (&[TermId], u64) = match tp.graph {
        EncGraph::Default => (&dataset.default_graphs, 1),
        EncGraph::Named(EncNode::Const(Some(g))) if dataset.is_named(g) => {
            scoped = [g];
            (&scoped, 1)
        }
        // A graph IRI the store never interned, or one the dataset hides:
        // statically empty.
        EncGraph::Named(EncNode::Const(_)) => return 0,
        // A bound graph variable pins the scan to one graph; assume named
        // quads spread evenly across the visible graphs.
        EncGraph::Named(EncNode::Var(slot)) => {
            let graphs = &dataset.named_graphs;
            let divisor = match bound[slot as usize] {
                true => graphs.len().max(1) as u64,
                false => 1,
            };
            (graphs, divisor)
        }
    };
    let count =
        |g: TermId| store.count_matching_quads_encoded(g, consts[0], consts[1], consts[2]) as u64;
    // Over a `FROM` merge the per-graph sum over-counts the duplicates the
    // set-semantics merge removes, which only makes the estimate
    // conservative.
    let total: u64 = graphs.iter().map(|&g| count(g)).sum();
    if total <= 1 {
        return total;
    }
    // The distinct-value estimates read the scope's largest graph.
    let graph = graphs
        .iter()
        .copied()
        .max_by_key(|&g| store.count_matching_quads_encoded(g, None, None, None))
        .expect("a scope that matches rows has a graph");
    let mut divisor: u64 = graph_divisor;
    if bound_var[0] {
        let d = match consts[2] {
            Some(o) => store.distinct_subjects_of_object(graph, o),
            None => store.distinct_subjects_estimate(graph),
        };
        divisor = divisor.saturating_mul(d.max(1) as u64);
    }
    if bound_var[1] {
        let d = match consts[0] {
            Some(s) => store.distinct_predicates_of_subject(graph, s),
            None => store.distinct_predicates_estimate(graph),
        };
        divisor = divisor.saturating_mul(d.max(1) as u64);
    }
    if bound_var[2] {
        let d = match consts[1] {
            Some(p) => store.distinct_objects_of_predicate(graph, p),
            None => store.distinct_objects_estimate(graph),
        };
        divisor = divisor.saturating_mul(d.max(1) as u64);
    }
    (total / divisor).max(1)
}

/// The cost-based order's tie-break: a shape score counting concrete and
/// already-bound positions.
fn pattern_selectivity(tp: &EncTriplePattern, bound: &[bool]) -> i64 {
    let mut score = 0i64;
    // The graph position scores exactly like a triple position: `GRAPH
    // <g>` is a constant, `GRAPH ?g` a variable.
    let graph_node = match tp.graph {
        EncGraph::Default => None,
        EncGraph::Named(node) => Some(node),
    };
    for node in tp.nodes().into_iter().chain(graph_node) {
        match node {
            EncNode::Const(_) => score += 2,
            // A variable the current rows already bind acts as a concrete
            // term, and additionally keeps the join connected.
            EncNode::Var(slot) if bound[slot as usize] => score += 3,
            EncNode::Var(_) => {}
        }
    }
    score
}

// ---- equality-filter pushdown ----------------------------------------------------

/// Collects the `?v = <iri>` conjuncts of `condition` that can soundly
/// pre-bind `?v`'s slot before `inner`, scoped to `graph`, scans, marking
/// the slots bound (so the estimator sees them as constants).
fn extract_prebinds(
    ctx: &EncContext<'_>,
    condition: &Expression,
    inner: &GraphPattern,
    graph: EncGraph,
    bound: &mut [bool],
) -> Vec<(u32, Option<TermId>)> {
    let mut prebind = Vec::new();
    let mut pairs: Vec<(&str, &Term)> = Vec::new();
    collect_eq_conjuncts(condition, &mut pairs);
    if pairs.is_empty() || !cannot_raise(condition) {
        return prebind;
    }
    // Pushdown requires the variable bound in *every* inner solution:
    // pruning on the pre-bound value is then exactly what the residual
    // filter would have done (the conjunct evaluates to plain false on
    // every pruned row, and a false top-level conjunct makes the whole
    // error-free condition false).
    let mut certain = vec![false; bound.len()];
    certainly_binds(ctx, inner, graph, &mut certain);
    for (name, term) in pairs {
        let Some(slot) = ctx.layout.slot_of(name) else {
            continue;
        };
        if !certain[slot as usize] {
            continue;
        }
        if prebind.iter().any(|&(s, _)| s == slot) {
            // Two conjuncts on the same variable: keep the first; the
            // residual filter resolves the (necessarily false) conflict.
            continue;
        }
        // `None` when the IRI was never interned: no row can satisfy the
        // conjunct, so the scan is pruned to nothing.
        prebind.push((slot, ctx.dict.id_of(term)));
        bound[slot as usize] = true;
        counters().filters_pushed.inc();
    }
    prebind
}

/// Walks the top-level `&&` spine collecting `?v = <iri>` conjuncts (either
/// orientation). Only IRI constants qualify: literal `=` in SPARQL compares
/// by *value* (`"1"^^xsd:integer = "1.0"^^xsd:double` holds across distinct
/// terms), so a literal pre-bind on term identity would drop rows the
/// filter keeps. IRI equality is term equality, and interning is injective.
fn collect_eq_conjuncts<'e>(expr: &'e Expression, out: &mut Vec<(&'e str, &'e Term)>) {
    match expr {
        Expression::And(a, b) => {
            collect_eq_conjuncts(a, out);
            collect_eq_conjuncts(b, out);
        }
        Expression::Comparison {
            op: ComparisonOp::Eq,
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expression::Variable(v), Expression::Constant(t))
            | (Expression::Constant(t), Expression::Variable(v))
                if matches!(t, Term::Iri(_)) =>
            {
                out.push((v.as_str(), t));
            }
            _ => {}
        },
        _ => {}
    }
}

/// `true` when evaluating `expr` can never return a hard `SparqlError` —
/// only values (including the soft `EvalValue::Error`, which is falsy in
/// filters).
///
/// This gate is what makes pushdown sound: `&&` evaluates *both* sides and
/// propagates a hard error from the right even when the left conjunct is
/// already false, so pruning a row early may hide an error the reference
/// evaluator reports. The hard-error sources in `crate::expr` are
/// aggregates, `BOUND` with a non-variable argument, and `REGEX` (its
/// pattern may be invalid); everything else evaluates totally.
fn cannot_raise(expr: &Expression) -> bool {
    match expr {
        Expression::Variable(_) | Expression::Constant(_) => true,
        Expression::Or(a, b) | Expression::And(a, b) => cannot_raise(a) && cannot_raise(b),
        Expression::Not(inner) => cannot_raise(inner),
        Expression::Comparison { left, right, .. } => cannot_raise(left) && cannot_raise(right),
        Expression::Function {
            func: Function::Regex,
            ..
        } => false,
        Expression::Function {
            func: Function::Bound,
            args,
        } => args.len() == 1 && matches!(args[0], Expression::Variable(_)),
        Expression::Function { args, .. } => args.iter().all(cannot_raise),
        Expression::Aggregate { .. } => false,
    }
}

/// Marks the slots bound in *every* solution of `pattern`, scoped to
/// `graph`: all BGP/Join variables, only the left side of `OPTIONAL`, and
/// the intersection of `UNION` branches. A `GRAPH ?g` marks `?g` through the
/// triple patterns it scopes (their scans bind it on every row), so over no
/// triple pattern it marks nothing.
fn certainly_binds(
    ctx: &EncContext<'_>,
    pattern: &GraphPattern,
    graph: EncGraph,
    out: &mut [bool],
) {
    match pattern {
        GraphPattern::Bgp(tps) => {
            for tp in tps {
                mark_pattern_vars(&ctx.compile(tp, graph), out);
            }
        }
        GraphPattern::Join(parts) => {
            for p in parts {
                certainly_binds(ctx, p, graph, out);
            }
        }
        GraphPattern::Optional { left, .. } => certainly_binds(ctx, left, graph, out),
        GraphPattern::Union(a, b) => {
            let mut in_a = vec![false; out.len()];
            let mut in_b = vec![false; out.len()];
            certainly_binds(ctx, a, graph, &mut in_a);
            certainly_binds(ctx, b, graph, &mut in_b);
            for (slot, (a_bound, b_bound)) in out.iter_mut().zip(in_a.into_iter().zip(in_b)) {
                *slot |= a_bound && b_bound;
            }
        }
        GraphPattern::Filter { inner, .. } => certainly_binds(ctx, inner, graph, out),
        GraphPattern::Graph { name, inner } => {
            certainly_binds(ctx, inner, EncGraph::Named(ctx.node(name)), out)
        }
    }
}

/// Runs `body` on `row` with a filter's pushed-down bindings applied: each
/// pre-bind sets its slot if unbound and passes a slot already holding the
/// same id; a conflict, or an unsatisfiable (never-interned) constant, means
/// no row can match and `body` does not run. Every slot is restored on the
/// way back — the recursion is the undo log.
pub(crate) fn apply_prebind(
    prebind: &[(u32, Option<TermId>)],
    row: &mut [TermId],
    body: Emit<'_>,
) -> Flow {
    let Some((&(slot, id), rest)) = prebind.split_first() else {
        return body(row);
    };
    let before = row[slot as usize];
    match id {
        Some(id) if before == UNBOUND || before == id => {
            row[slot as usize] = id;
            let flow = apply_prebind(rest, row, body);
            row[slot as usize] = before;
            flow
        }
        _ => Ok(ControlFlow::Continue(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Dataset;
    use crate::parse_query;
    use hbold_rdf_model::{Iri, Quad, Triple};

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    /// A store with strong cardinality skew: one hub predicate with 60
    /// triples, one rare predicate with 2.
    fn skewed_store() -> TripleStore {
        let mut triples = Vec::new();
        for i in 0..20 {
            let s = iri(&format!("http://e.org/s{i}"));
            for j in 0..3 {
                triples.push(Triple::new(
                    s.clone(),
                    iri("http://e.org/hub"),
                    iri(&format!("http://e.org/o{i}_{j}")),
                ));
            }
        }
        for i in 0..2 {
            triples.push(Triple::new(
                iri(&format!("http://e.org/s{i}")),
                iri("http://e.org/rare"),
                iri(&format!("http://e.org/r{i}")),
            ));
        }
        let mut store = TripleStore::new();
        store.insert_batch(triples.iter());
        store
    }

    fn var(layout_slot: u32) -> EncNode {
        EncNode::Var(layout_slot)
    }

    fn tp(s: EncNode, p: EncNode, o: EncNode) -> EncTriplePattern {
        EncTriplePattern {
            subject: s,
            predicate: p,
            object: o,
            graph: EncGraph::Default,
        }
    }

    #[test]
    fn tie_break_is_lowest_pattern_index() {
        // Three identical patterns: every estimate and shape score ties, so
        // the written order must survive (a `max_by_key`-style pick would
        // return the *last* maximum).
        let store = skewed_store();
        let hub = store
            .id_of(&iri("http://e.org/hub").into())
            .map(|id| EncNode::Const(Some(id)))
            .unwrap();
        let patterns = vec![
            tp(var(0), hub, var(1)),
            tp(var(0), hub, var(1)),
            tp(var(0), hub, var(1)),
        ];
        let bound = vec![false; 2];
        let ds = EncDataset::compile(&Dataset::default(), &store);
        let (order, _) = stats_join_order(&store, &ds, &patterns, &bound);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn statistics_pick_the_rare_pattern_first_regardless_of_writing_order() {
        let store = skewed_store();
        for (query, rare_written_at) in [
            (
                "SELECT ?s ?v ?o WHERE { ?s <http://e.org/rare> ?v . ?s <http://e.org/hub> ?o }",
                0usize,
            ),
            (
                "SELECT ?s ?v ?o WHERE { ?s <http://e.org/hub> ?o . ?s <http://e.org/rare> ?v }",
                1usize,
            ),
        ] {
            let plan = explain(&store, &parse_query(query).unwrap());
            assert_eq!(plan.bgps.len(), 1);
            let bgp = &plan.bgps[0];
            assert_eq!(
                bgp.order[0], rare_written_at,
                "rare pattern must be scanned first: {query}"
            );
            // The rare pattern's constant-prefix count is exact.
            assert_eq!(bgp.estimates[0], 2);
        }
    }

    #[test]
    fn estimates_divide_by_distinct_counts_for_bound_vars() {
        let store = skewed_store();
        let hub = store.id_of(&iri("http://e.org/hub").into()).unwrap();
        let ds = EncDataset::compile(&Dataset::default(), &store);
        // (?s hub ?o) with ?s already bound: 60 triples / 20 subjects = 3.
        let pattern = tp(var(0), EncNode::Const(Some(hub)), var(1));
        let est = estimate_pattern(&store, &ds, &pattern, &[true, false]);
        assert_eq!(est, 3);
        // Unbound: the full predicate count.
        let est = estimate_pattern(&store, &ds, &pattern, &[false, false]);
        assert_eq!(est, 60);
        // A never-interned constant is statically empty.
        let pattern = tp(var(0), EncNode::Const(None), var(1));
        assert_eq!(estimate_pattern(&store, &ds, &pattern, &[false, false]), 0);
    }

    #[test]
    fn connected_expensive_pattern_beats_cheap_disconnected_one() {
        // rare(2) and lone(2) tie at the cold start (nothing bound yet, so
        // neither is "connected"); the shape-score tie-break keeps rare
        // (lowest index) first. After that, hub(60, connected via ?s) must
        // come before the disconnected lone even though lone's estimate is
        // far smaller: 2 cheap rows never outrank a connected join.
        let store = {
            let mut store = skewed_store();
            for i in 0..2 {
                store.insert(&Triple::new(
                    iri(&format!("http://e.org/island{i}")),
                    iri("http://e.org/lone"),
                    iri("http://e.org/isle"),
                ));
            }
            store
        };
        let plan = explain(
            &store,
            &parse_query(
                "SELECT * WHERE { ?s <http://e.org/rare> ?v . \
                 ?s <http://e.org/hub> ?o . ?x <http://e.org/lone> ?y }",
            )
            .unwrap(),
        );
        assert_eq!(plan.bgps[0].order, vec![0, 1, 2]);
    }

    #[test]
    fn pushdown_requires_certain_binding_and_error_free_condition() {
        let store = skewed_store();
        // Certainly bound + IRI equality: pushed.
        let pushed = explain(
            &store,
            &parse_query(
                "SELECT * WHERE { ?s <http://e.org/hub> ?o \
                 FILTER(?s = <http://e.org/s3>) }",
            )
            .unwrap(),
        );
        assert_eq!(pushed.pushed_filters, 1);
        // OPTIONAL-only binding: not certain, not pushed.
        let optional = explain(
            &store,
            &parse_query(
                "SELECT * WHERE { ?s <http://e.org/hub> ?o \
                 OPTIONAL { ?s <http://e.org/rare> ?v } FILTER(?v = <http://e.org/r1>) }",
            )
            .unwrap(),
        );
        assert_eq!(optional.pushed_filters, 0);
        // A REGEX conjunct can raise a hard error: nothing is pushed.
        let regex = explain(
            &store,
            &parse_query(
                "SELECT * WHERE { ?s <http://e.org/hub> ?o \
                 FILTER(?s = <http://e.org/s3> && regex(?o, 'o3')) }",
            )
            .unwrap(),
        );
        assert_eq!(regex.pushed_filters, 0);
        // Literal equality compares by value, never pushed.
        let literal = explain(
            &store,
            &parse_query("SELECT * WHERE { ?s <http://e.org/hub> ?o FILTER(?o = \"x\") }").unwrap(),
        );
        assert_eq!(literal.pushed_filters, 0);
    }

    #[test]
    fn explain_renders_the_pipeline_and_the_chosen_tail() {
        // The shapes the server actually sees: the three extraction counts,
        // an un-grouped count, a browse page, and the remaining tails.
        let mut triples = Vec::new();
        for i in 0..6 {
            let s = iri(&format!("http://e.org/s{i}"));
            let next = iri(&format!("http://e.org/s{}", (i + 1) % 6));
            triples.push(Triple::new(
                s.clone(),
                iri("http://e.org/a"),
                iri("http://e.org/C"),
            ));
            triples.push(Triple::new(s.clone(), iri("http://e.org/p"), next));
        }
        let mut store = TripleStore::new();
        store.insert_batch(triples.iter());
        let class = "scan pattern=?s <http://e.org/a> <http://e.org/C> written_index=0 estimate=6";
        for (query, outline) in [
            (
                "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://e.org/a> ?c } GROUP BY ?c ORDER BY DESC(?n)",
                "bgp order=[0]\n  scan pattern=?s <http://e.org/a> ?c written_index=0 estimate=6\n\
                 group strategy=hash\norder strategy=sort\nproject\n"
                    .to_string(),
            ),
            (
                "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s <http://e.org/a> <http://e.org/C> . ?s ?p ?o } \
                 GROUP BY ?p ORDER BY ?p",
                format!(
                    "bgp order=[0, 1]\n  {class}\n  scan pattern=?s ?p ?o written_index=1 estimate=2\n\
                     group strategy=hash\norder strategy=sort\nproject\n"
                ),
            ),
            (
                "SELECT ?p ?t (COUNT(?s) AS ?n) WHERE { ?o <http://e.org/a> ?t . ?s ?p ?o . \
                 ?s <http://e.org/a> <http://e.org/C> } GROUP BY ?p ?t ORDER BY ?p ?t",
                format!(
                    "bgp order=[2, 1, 0]\n  {}\n  scan pattern=?s ?p ?o written_index=1 estimate=2\n  \
                     scan pattern=?o <http://e.org/a> ?t written_index=0 estimate=1\n\
                     group strategy=hash\norder strategy=sort\nproject\n",
                    class.replace("written_index=0", "written_index=2")
                ),
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
                "bgp order=[0]\n  scan pattern=?s ?p ?o written_index=0 estimate=12\n\
                 group strategy=count\nproject\n"
                    .to_string(),
            ),
            (
                "SELECT ?s ?o WHERE { ?s <http://e.org/a> <http://e.org/C> . ?s <http://e.org/p> ?o } \
                 ORDER BY ?o ?s LIMIT 1000 OFFSET 2000",
                format!(
                    "bgp order=[0, 1]\n  {class}\n  \
                     scan pattern=?s <http://e.org/p> ?o written_index=1 estimate=1\n\
                     order strategy=topk k=3000\nproject\n"
                ),
            ),
            (
                // The browse page: its scans emit `?s ?p ?o` in id order,
                // and the store's ids are term order.
                "SELECT ?s ?p ?o WHERE { ?s <http://e.org/a> <http://e.org/C> . ?s ?p ?o } \
                 ORDER BY ?s ?p ?o LIMIT 1000 OFFSET 2000",
                format!(
                    "bgp order=[0, 1]\n  {class}\n  \
                     scan pattern=?s ?p ?o written_index=1 estimate=2\n\
                     order strategy=stream\nproject\n"
                ),
            ),
            (
                "SELECT ?s WHERE { ?s <http://e.org/a> <http://e.org/C> } LIMIT 4",
                format!("bgp order=[0]\n  {class}\nproject\n"),
            ),
            (
                "SELECT DISTINCT ?s WHERE { ?s <http://e.org/a> <http://e.org/C> } ORDER BY ?s LIMIT 3",
                format!("bgp order=[0]\n  {class}\norder strategy=stream\nproject\n"),
            ),
            (
                "SELECT DISTINCT ?s WHERE { ?s <http://e.org/a> <http://e.org/C> } \
                 ORDER BY DESC(?s) LIMIT 3",
                format!("bgp order=[0]\n  {class}\norder strategy=sort\nproject\n"),
            ),
            (
                "ASK { ?s <http://e.org/a> <http://e.org/C> }",
                format!("bgp order=[0]\n  {class}\nask\n"),
            ),
        ] {
            let plan = explain(&store, &parse_query(query).unwrap());
            assert_eq!(plan.to_string(), outline, "query {query}");
        }
    }

    /// Ten subjects typed `C` or `D`, linked in a ring; the links also in
    /// two named graphs, the first one in both.
    fn graph_store() -> TripleStore {
        let mut quads = Vec::new();
        for i in 0..10 {
            let s = iri(&format!("http://e.org/s{i}"));
            let class = iri(if i % 2 == 0 {
                "http://e.org/C"
            } else {
                "http://e.org/D"
            });
            let link = Triple::new(
                s.clone(),
                iri("http://e.org/p"),
                iri(&format!("http://e.org/s{}", (i + 1) % 10)),
            );
            quads.push(Quad::new(
                Triple::new(s, iri("http://e.org/a"), class),
                None,
            ));
            quads.push(Quad::new(link.clone(), None));
            for g in ["http://e.org/g1", "http://e.org/g2"] {
                if i == 0 || (g == "http://e.org/g1") == (i < 5) {
                    quads.push(Quad::new(link.clone(), Some(iri(g).into())));
                }
            }
        }
        let mut store = TripleStore::new();
        store.insert_quads_batch(quads.iter());
        store
    }

    /// The strategy of `query`'s group stage.
    fn group_strategy(store: &TripleStore, query: &str) -> String {
        let plan = explain(store, &parse_query(query).unwrap()).to_string();
        let group = plan.lines().find(|line| line.starts_with("group "));
        group.unwrap_or("no group stage").to_string()
    }

    /// `query`'s rows as labels (an IRI's local name, `-` for unbound),
    /// sorted.
    fn answer(store: &TripleStore, query: &str) -> Vec<Vec<String>> {
        let rows = crate::evaluate(store, &parse_query(query).unwrap()).unwrap();
        let mut rows: Vec<Vec<String>> = (rows.into_select().unwrap().rows.iter())
            .map(|row| {
                row.iter()
                    .map(|cell| cell.as_ref().map_or("-", |term| term.label()).to_string())
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    /// The one count of `query`'s one row.
    fn the_count(store: &TripleStore, query: &str) -> String {
        let rows = answer(store, query);
        assert_eq!(rows.len(), 1, "{query}");
        rows[0][0].clone()
    }

    #[test]
    fn a_lone_pattern_is_counted_off_the_directory() {
        let store = graph_store();
        for (query, count) in [
            ("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", "20"),
            (
                "SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://e.org/a> <http://e.org/C> }",
                "5",
            ),
            (
                "SELECT (COUNT(*) AS ?n) (COUNT(?o) AS ?m) WHERE { <http://e.org/s3> ?p ?o }",
                "2",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { <http://e.org/s3> <http://e.org/a> <http://e.org/D> }",
                "1",
            ),
            // Constants the store never interned: one row, and it says 0.
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://e.org/nope> ?o }",
                "0",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { GRAPH <http://e.org/nope> { ?s ?p ?o } }",
                "0",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { GRAPH <http://e.org/g1> { ?s ?p ?o } }",
                "5",
            ),
            (
                "SELECT (COUNT(?o) AS ?n) WHERE { GRAPH <http://e.org/g2> { ?s <http://e.org/p> ?o } }",
                "6",
            ),
            (
                "SELECT (COUNT(*) AS ?n) FROM <http://e.org/g2> WHERE { ?s ?p ?o }",
                "6",
            ),
            // `FROM NAMED` hides the graph `GRAPH` names.
            (
                "SELECT (COUNT(*) AS ?n) FROM NAMED <http://e.org/g2> \
                 WHERE { GRAPH <http://e.org/g1> { ?s ?p ?o } }",
                "0",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } ORDER BY ?n",
                "20",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } ORDER BY DESC(?n) LIMIT 1",
                "20",
            ),
        ] {
            assert_eq!(
                group_strategy(&store, query),
                "group strategy=count",
                "{query}"
            );
            assert_eq!(the_count(&store, query), count, "{query}");
        }
        // The single row under `LIMIT 0` and `OFFSET 1`: gone.
        for query in [
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } LIMIT 0",
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } OFFSET 1",
        ] {
            assert_eq!(
                group_strategy(&store, query),
                "group strategy=count",
                "{query}"
            );
            assert!(answer(&store, query).is_empty(), "{query}");
        }
    }

    #[test]
    fn a_count_the_directory_cannot_answer_walks_its_rows() {
        let store = graph_store();
        for (query, rows) in [
            // A repeated variable matches fewer quads than its prefix.
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?x }",
                vec![vec!["0"]],
            ),
            // A `FROM` merge is a set union: the link in both graphs counts once.
            (
                "SELECT (COUNT(*) AS ?n) FROM <http://e.org/g1> FROM <http://e.org/g2> \
                 WHERE { ?s ?p ?o }",
                vec![vec!["10"]],
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } }",
                vec![vec!["11"]],
            ),
            (
                "SELECT (COUNT(?z) AS ?n) WHERE { ?s ?p ?o }",
                vec![vec!["0"]],
            ),
            (
                "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?o }",
                vec![vec!["10"]],
            ),
            (
                "SELECT (COUNT(*) AS ?n) (MAX(?o) AS ?m) WHERE { ?s ?p ?o }",
                vec![vec!["20", "s9"]],
            ),
            (
                "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
                vec![vec!["a", "10"], vec!["p", "10"]],
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://e.org/a> <http://e.org/C> . ?s ?p ?o }",
                vec![vec!["10"]],
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o FILTER(BOUND(?s)) }",
                vec![vec!["20"]],
            ),
        ] {
            assert_eq!(
                group_strategy(&store, query),
                "group strategy=hash",
                "{query}"
            );
            assert_eq!(answer(&store, query), rows, "{query}");
        }
    }

    #[test]
    fn a_count_off_the_directory_sees_the_churn_tiers() {
        // A fresh load (with room for churn: 60 more quads in a graph of
        // their own), then a key removed from the flat tier and two added
        // beside it: tombstones and delta keys inside the counted ranges.
        let mut quads: Vec<Quad> = graph_store().iter_quads().collect();
        for i in 0..60 {
            let filler = Triple::new(
                iri(&format!("http://e.org/f{i}")),
                iri("http://e.org/p"),
                iri("http://e.org/f"),
            );
            quads.push(Quad::new(filler, Some(iri("http://e.org/filler").into())));
        }
        let mut store = TripleStore::new();
        store.insert_quads_batch(quads.iter());
        let link = |from: &str, to: &str| Triple::new(iri(from), iri("http://e.org/p"), iri(to));
        store.remove(&link("http://e.org/s3", "http://e.org/s4"));
        store.insert(&link("http://e.org/s3", "http://e.org/s7"));
        store.insert(&link("http://e.org/s5", "http://e.org/new"));
        let tiers = store.index_tier_sizes();
        assert!(
            tiers
                .iter()
                .all(|(_, t)| t.flat > 0 && t.delta > 0 && t.dead > 0),
            "{tiers:?}"
        );
        for (query, count) in [
            ("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", "21"),
            (
                "SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://e.org/p> ?o }",
                "11",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { <http://e.org/s3> <http://e.org/p> ?o }",
                "1",
            ),
            (
                "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://e.org/p> <http://e.org/s4> }",
                "0",
            ),
        ] {
            assert_eq!(
                group_strategy(&store, query),
                "group strategy=count",
                "{query}"
            );
            assert_eq!(the_count(&store, query), count, "{query}");
        }
    }

    #[test]
    fn cannot_raise_classifies_the_hard_error_sources() {
        let parse_condition = |filter: &str| {
            let q = format!("SELECT * WHERE {{ ?s ?p ?o FILTER({filter}) }}");
            let query = parse_query(&q).unwrap();
            match &query.pattern {
                crate::ast::GraphPattern::Filter { condition, .. } => condition.clone(),
                other => panic!("unexpected pattern {other:?}"),
            }
        };
        assert!(cannot_raise(&parse_condition("?s = <http://e.org/a>")));
        assert!(cannot_raise(&parse_condition(
            "BOUND(?s) && (?o > 3 || !(?p != ?o))"
        )));
        assert!(cannot_raise(&parse_condition("CONTAINS(STR(?o), 'x')")));
        assert!(!cannot_raise(&parse_condition("regex(?o, 'x')")));
        assert!(!cannot_raise(&parse_condition(
            "?s = <http://e.org/a> && regex(?o, 'x')"
        )));
    }

    #[test]
    fn apply_prebind_sets_passes_and_drops() {
        // What the body saw, if it ran; the row is restored either way.
        let seen = |prebind: &[(u32, Option<TermId>)]| {
            let mut row = vec![UNBOUND, 7];
            let mut seen = None;
            let flow = apply_prebind(prebind, &mut row, &mut |row| {
                seen = Some(row.to_vec());
                Ok(ControlFlow::Continue(()))
            });
            assert!(flow.unwrap().is_continue());
            assert_eq!(row, vec![UNBOUND, 7]);
            seen
        };
        assert_eq!(seen(&[(0, Some(5))]), Some(vec![5, 7]));
        assert_eq!(seen(&[(0, Some(5)), (1, Some(7))]), Some(vec![5, 7]));
        assert_eq!(seen(&[(0, Some(5)), (1, Some(8))]), None);
        assert_eq!(seen(&[(0, None)]), None);
    }
}
