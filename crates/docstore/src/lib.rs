//! # hbold-docstore
//!
//! A small embedded document store — the reproduction's stand-in for the
//! MongoDB instance the original H-BOLD server uses to cache Schema
//! Summaries and Cluster Schemas (paper §2.1 and §3.2).
//!
//! The store keeps named [`Collection`]s of [`Document`]s. A document is a
//! tree of [`DocValue`]s (null, booleans, integers, floats, strings, arrays,
//! objects) with a store-assigned identifier. Collections support equality /
//! range / containment [`Filter`]s, secondary hash indexes on top-level
//! fields, and persistence to disk in a JSON-lines format written and parsed
//! by this crate's own [`json`] codec (no external JSON dependency;
//! ARCHITECTURE.md, "JSON", records why it is not yet the workspace's one).
//!
//! ```
//! use hbold_docstore::{doc, DocStore, DocValue, Filter};
//!
//! let store = DocStore::in_memory();
//! let summaries = store.collection("schema_summaries");
//! summaries.insert(doc! {
//!     "endpoint" => "http://example.org/sparql",
//!     "classes" => 42,
//!     "triples" => 1_000_000,
//! });
//!
//! let found = summaries.find(&Filter::eq("endpoint", "http://example.org/sparql"));
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].value.get("classes").and_then(DocValue::as_i64), Some(42));
//! ```

pub mod collection;
pub mod error;
pub mod json;
pub mod store;
pub mod value;

pub use collection::{Collection, Document, Filter};
pub use error::DocStoreError;
pub use store::DocStore;
pub use value::DocValue;
