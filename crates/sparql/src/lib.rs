//! # hbold-sparql
//!
//! A SPARQL 1.1 *subset* query engine over [`hbold_triple_store::TripleStore`].
//!
//! H-BOLD talks to its data sources exclusively through SPARQL: the Index
//! Extraction issues statistics queries (`SELECT (COUNT(...) AS ...) ...
//! GROUP BY ...`), the portal crawler issues the DCAT discovery query of the
//! paper's Listing 1 (with a `FILTER(regex(...))`), and the visual query
//! builder generates class/property queries on behalf of the user. This
//! crate implements exactly that query language, end to end:
//!
//! * [`lexer`] — tokenizer,
//! * [`ast`] — the parsed query representation,
//! * [`parser`] — recursive-descent parser,
//! * [`eval`] — a streaming operator pipeline over a triple store (BGP
//!   joins, `FILTER`, `OPTIONAL`, `UNION`, `GROUP BY` + aggregates,
//!   `ORDER BY` with top-k short-circuit, `DISTINCT`, `LIMIT`/`OFFSET`);
//!   one planner, one single-threaded executor, no engine options,
//! * [`cancel`] — cooperative cancellation: a [`CancellationToken`]
//!   (shared atomic state + optional monotonic deadline) the evaluator
//!   polls at operator batch boundaries, surfacing typed
//!   `Cancelled`/`DeadlineExceeded` errors instead of truncated results,
//! * [`encoded`] — the dictionary-encoded execution domain the operators
//!   run in: variable→slot layouts ([`SlotLayout`]) and fixed-width
//!   `TermId` rows, decoded only at the results boundary,
//! * [`optimize`] — the statistics-driven cost-based optimizer: exact
//!   index-range cardinality estimates drive greedy cheapest-next-join BGP
//!   ordering and equality-filter pushdown,
//! * [`plan`] — the plan cache, keyed on the exact query text (at most
//!   16 KiB),
//! * [`mod@reference`] — a deliberately naive evaluator used as a differential
//!   test oracle against the streaming engine,
//! * [`expr`] — expression evaluation (comparisons, logical operators,
//!   `REGEX`, string and term functions),
//! * [`regex`] — a small self-contained regular-expression engine used by
//!   the `REGEX`/`CONTAINS` filters,
//! * [`results`] — query results plus SPARQL-JSON (both directions), CSV and
//!   TSV serialization; the JSON decoder reads rows straight off the events
//!   of `hbold_telemetry::json::Reader`, bounded in depth and independent of
//!   member order,
//! * [`json`] — a re-export of the workspace's one JSON tree, which lives in
//!   `hbold_telemetry::json`,
//! * [`pretty`] — pretty-printer whose output re-parses to the same AST,
//! * [`update`] — SPARQL 1.1 Update: `INSERT DATA` / `DELETE DATA` /
//!   `DELETE WHERE` / `DELETE ... INSERT ... WHERE`, with `GRAPH`-scoped
//!   quad templates planned into atomic remove/insert deltas,
//! * [`fuzz`] — seeded grammar-based query/graph generators and the
//!   differential + serialization round-trip fuzz harness (queries under
//!   the cost-based order, seeded random join orders and the naive
//!   reference; update sequences against the naive planner).
//!
//! ```
//! use hbold_rdf_model::{Iri, Triple, vocab::{foaf, rdf}};
//! use hbold_triple_store::TripleStore;
//! use hbold_sparql::execute_query;
//!
//! let mut store = TripleStore::new();
//! for name in ["alice", "bob"] {
//!     let s = Iri::new(format!("http://example.org/{name}")).unwrap();
//!     store.insert(&Triple::new(s, rdf::type_(), foaf::person()));
//! }
//!
//! let results = execute_query(
//!     &store,
//!     "SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://xmlns.com/foaf/0.1/Person> }",
//! ).unwrap();
//! let rows = results.into_select().unwrap();
//! assert_eq!(rows.rows[0][0].as_ref().unwrap().label(), "2");
//! ```

#![deny(missing_docs)]

pub mod ast;
pub mod cancel;
pub mod encoded;
pub mod error;
pub mod eval;
pub mod expr;
pub mod fuzz;
pub mod json;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod reference;
pub mod regex;
pub mod results;
pub mod update;

pub use cancel::CancellationToken;
pub use encoded::SlotLayout;
pub use error::SparqlError;
pub use eval::{evaluate, evaluate_with_hooks, execute_query, EvalHooks};
// Compile-compat shim, kept only for the frozen `benchmark/` crate.
pub use eval::{evaluate_with, EvalOptions};
pub use optimize::{explain, PlanExplanation};
pub use parser::{parse_query, parse_update};
pub use plan::{parse_cached, parse_traced, PlanCacheStats};
pub use pretty::{print_query, print_update};
pub use results::{CsvTable, QueryResults, ResultsParseError, SelectResults};
pub use update::{
    apply_updates, apply_updates_naive, execute_update, plan_update_op, plan_update_op_with,
    UpdateOutcome,
};

/// Forces registration of the engine's counter families
/// (`hbold_plan_cache_hits_total`, `hbold_plan_cache_misses_total` and the
/// three `hbold_optimizer_*_total`), so a metrics scrape of a process that
/// has not yet parsed or planned a query still exposes them at zero.
pub fn register_metrics() {
    let _ = plan::counters();
    let _ = optimize::counters();
}
