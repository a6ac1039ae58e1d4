//! # hbold-repro
//!
//! Facade crate for the H-BOLD reproduction workspace. It re-exports every
//! workspace crate under a short name so the top-level `examples/` and
//! `tests/` directories (and downstream users who want a single dependency)
//! can reach the whole system through one crate.
//!
//! See `README.md` for the overview and `ARCHITECTURE.md` for the
//! paper-to-crate mapping.

pub use hbold;
pub use hbold_cluster as cluster;
pub use hbold_docstore as docstore;
pub use hbold_endpoint as endpoint;
pub use hbold_rdf_model as rdf;
pub use hbold_rdf_parser as rdf_parser;
pub use hbold_schema as schema;
pub use hbold_server as server;
pub use hbold_sparql as sparql;
pub use hbold_triple_store as store;
pub use hbold_viz as viz;
