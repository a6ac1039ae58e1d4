//! # hbold-triple-store
//!
//! A dictionary-encoded, quad-indexed, in-memory RDF store with named
//! graphs.
//!
//! Each SPARQL endpoint simulated by `hbold-endpoint` holds its dataset in a
//! [`TripleStore`]. The store interns every RDF term once in a
//! [`TermDictionary`] and keeps the resulting `(u32, u32, u32, u32)` quads in
//! three sorted graph-first indexes (GSPO, GPOS, GOSP). Every scan reads
//! inside one graph: a pattern lookup picks the index whose ordering puts the
//! bound positions right after the graph, so it becomes a range scan — the
//! standard design of native RDF quad stores, scaled down to what the H-BOLD
//! experiments need (hundreds of thousands of triples per endpoint). Triples
//! without an explicit graph live in the default graph (the reserved id
//! [`store::DEFAULT_GRAPH`]); the triple-level API is a view of that graph, so
//! triple-only callers are unaffected by named-graph data.
//!
//! ```
//! use hbold_rdf_model::{Iri, Literal, Triple, TriplePattern, vocab::{foaf, rdf}};
//! use hbold_triple_store::TripleStore;
//!
//! let mut store = TripleStore::new();
//! let alice = Iri::new("http://example.org/alice").unwrap();
//! store.insert(&Triple::new(alice.clone(), rdf::type_(), foaf::person()));
//! store.insert(&Triple::new(alice.clone(), foaf::name(), Literal::string("Alice")));
//!
//! assert_eq!(store.len(), 2);
//! let people = store.matching(&TriplePattern::any()
//!     .with_predicate(rdf::type_())
//!     .with_object(foaf::person()));
//! assert_eq!(people.len(), 1);
//! ```

#![deny(missing_docs)]

pub mod dictionary;
pub mod fault;
pub mod index;
pub mod persist;
pub mod shared;
pub mod stats;
pub mod store;

pub use dictionary::{TermDictionary, TermId};
pub use fault::FaultInjector;
pub use index::{IndexOrder, PrefixScan, TierBytes, TierSizes};
pub use persist::{PersistError, PersistOptions, RecoveryReport};
pub use shared::{LoadError, SharedStore};
pub use stats::StoreStats;
pub use store::{EncodedScan, EncodedTriple, PreparedScan, TripleStore, DEFAULT_GRAPH};
