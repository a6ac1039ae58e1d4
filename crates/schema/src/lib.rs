//! # hbold-schema
//!
//! The server-layer analytics of H-BOLD: **Index Extraction** and the
//! **Schema Summary** (paper §2.1).
//!
//! * [`indexes`] — the structural and statistical indexes extracted from an
//!   endpoint: number of instances, number of classes, the list of classes
//!   with their properties, and per-class instance counts.
//! * [`extraction`] — the extractor that obtains those indexes purely through
//!   SPARQL, with *pattern strategies*: it first tries the efficient
//!   aggregate queries and falls back to paged enumeration when an endpoint
//!   rejects aggregates or caps result sizes, retrying transient failures.
//! * [`diff`] — change detection between two Schema Summaries, which lets
//!   the refresh pipeline skip re-clustering when a source did not change
//!   (paper §3.1–3.2).
//! * [`summary`] — the Schema Summary: a pseudograph whose nodes are the
//!   instantiated classes (with attributes and instance counts) and whose
//!   arcs are the object properties connecting them.
//!
//! Everything converts to and from [`hbold_docstore::DocValue`], because the
//! H-BOLD pipeline stores summaries in the document store and serves the
//! presentation layer from there (§3.2).

pub mod diff;
pub mod extraction;
pub mod indexes;
pub mod summary;

pub use diff::SummaryDiff;
pub use extraction::{ExtractionError, ExtractionReport, ExtractionStrategy, IndexExtractor};
pub use indexes::{ClassIndex, DatasetIndexes, ObjectLinkIndex, PropertyIndex};
pub use summary::{SchemaEdge, SchemaNode, SchemaSummary};
