//! # hbold-rdf-model
//!
//! The RDF data model used throughout the H-BOLD reproduction.
//!
//! This crate defines the vocabulary-independent building blocks of RDF 1.1:
//! [`Iri`]s, [`Literal`]s, [`BlankNode`]s, the [`Term`] sum type, [`Triple`]s
//! and a simple unindexed [`Graph`] container, together with the well-known
//! vocabularies (RDF, RDFS, OWL, XSD, DCAT, DCTERMS, FOAF) that the rest of
//! the system relies on.
//!
//! The indexed, dictionary-encoded store lives in `hbold-triple-store`; this
//! crate intentionally stays allocation-simple and dependency-free so that
//! every other crate can use it in its public API.
//!
//! ```
//! use hbold_rdf_model::{Iri, Term, Triple, vocab::rdf};
//!
//! let alice = Iri::new("http://example.org/alice").unwrap();
//! let person = Iri::new("http://example.org/Person").unwrap();
//! let t = Triple::new(alice.clone(), rdf::type_(), person);
//! assert!(t.object.is_iri());
//! assert_eq!(t.subject, Term::from(alice));
//! ```

pub mod graph;
pub mod literal;
pub mod quad;
pub mod term;
pub mod text;
pub mod triple;
pub mod value;
pub mod vocab;

pub use graph::Graph;
pub use literal::Literal;
pub use quad::Quad;
pub use term::{BlankNode, Iri, IriParseError, OrderKey, Term, TermKind};
pub use triple::{Triple, TriplePattern};
pub use value::{LiteralValue, ValueKey};
