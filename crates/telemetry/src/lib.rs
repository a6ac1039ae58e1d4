//! Unified telemetry for the H-BOLD workspace: a metrics registry with
//! Prometheus text-format exposition, per-query execution traces, and the
//! JSON codec both are read and written with.
//!
//! The crate is std-only and dependency-free so every other crate in the
//! workspace (engine, store, server, application layer) can depend on it
//! without cycles — which is also why the workspace's one JSON codec lives
//! here rather than beside its heaviest user.
//!
//! # Metrics
//!
//! [`metrics::Registry`] holds named metric *families* (counter, gauge, or
//! log2 histogram), each fanning out into label-addressed *series*.
//! Registration is idempotent — asking for the same `(name, labels)` twice
//! returns a handle to the same underlying cell — so call sites can
//! re-register freely instead of threading handles through constructors.
//! Handles are `Arc`-backed atomics: recording is lock-free and never
//! touches the registry map.
//!
//! Two registries matter in practice: the process-wide
//! [`metrics::Registry::global`] (engine counters: plan cache, optimizer,
//! WAL, scheduler) and per-instance registries owned by servers (route
//! latencies, response classes), so parallel in-process servers do not
//! collide. [`metrics::Registry::render`] emits the Prometheus text format
//! served at `GET /metrics`.
//!
//! # Traces
//!
//! [`trace::Span`] is a shareable node in a per-query span tree. Operators
//! accumulate output rows and elapsed time into atomic cells;
//! [`trace::Span::to_json`] renders the whole tree as an `EXPLAIN
//! ANALYZE`-style JSON document. Spans are only allocated when a caller
//! asks for a trace, so the untraced hot path pays nothing.
//!
//! # JSON
//!
//! [`json`] holds three things and the rest of the wire stands on them: a
//! pull [`json::Reader`] that yields events from an explicit, depth-bounded
//! stack (the SPARQL-results decoder reads rows straight off it),
//! [`json::write_str`], the one string escaper, and the [`json::JsonValue`]
//! tree that span trees, error bodies and the slow-query log are built as
//! and printed from.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricKind, Registry, EXPOSITION_CONTENT_TYPE};
pub use trace::{AttrValue, Span};
