//! The JSON tree, re-exported from where the workspace's one codec lives:
//! [`hbold_telemetry::json`]. The SPARQL-results decoder in
//! [`crate::results`] reads that module's events directly; this path stays
//! for callers that name `hbold_sparql::json::JsonValue`.

pub use hbold_telemetry::json::{JsonError, JsonValue};
