//! # hbold-rdf-parser
//!
//! Parsing and serialization of RDF documents for the H-BOLD reproduction.
//!
//! Two concrete syntaxes are supported:
//!
//! * **N-Triples** ([`ntriples`]) — the line-oriented syntax used for dumps
//!   and for shipping graphs between the simulated endpoints and tests;
//!   [`ntriples::Reader`] streams a dump without holding it.
//! * **Turtle (subset)** ([`turtle`]) — `@prefix`/`PREFIX` declarations,
//!   prefixed names, the `a` keyword, predicate lists (`;`), object lists
//!   (`,`), anonymous blank nodes `[...]`, numeric/boolean shorthand
//!   literals, language tags and datatype annotations. This covers the
//!   documents produced by the synthetic dataset generators and the ones a
//!   user would realistically paste into H-BOLD's manual-insertion form.
//!
//! Both read their terms — IRIs, blank nodes, literals with the full escape
//! set, language tags, prefixed names — through the workspace's one term
//! reader, [`hbold_rdf_model::text::Cursor`], which the SPARQL lexer and the
//! SPARQL TSV decoder call too, and keep only their own grammar around it.
//! Both report errors with line/column positions (columns counted in
//! characters) through [`ParseError`].
//!
//! ```
//! use hbold_rdf_parser::{parse_turtle, ntriples};
//!
//! let doc = r#"
//! @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//! @prefix ex:   <http://example.org/> .
//! ex:alice a foaf:Person ; foaf:name "Alice" ; foaf:knows ex:bob .
//! "#;
//! let graph = parse_turtle(doc).unwrap();
//! assert_eq!(graph.len(), 3);
//! // Round-trip through N-Triples.
//! let text = ntriples::write(&graph);
//! assert_eq!(ntriples::parse(&text).unwrap(), graph);
//! ```

pub mod error;
pub mod ntriples;
pub mod turtle;

pub use error::ParseError;
pub use ntriples::{parse as parse_ntriples, write as write_ntriples};
pub use turtle::parse as parse_turtle;
