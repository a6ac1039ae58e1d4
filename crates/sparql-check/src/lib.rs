//! The test apparatus of [`hbold_sparql`], a dev-dependency only: no server
//! or library build compiles it.
//!
//! * [`fuzz`] — seeded query, store and update generators and the
//!   differential fuzz check,
//! * [`mod@reference`] — the naive evaluator and update planner it checks
//!   against,
//! * [`pretty`] — a printer whose output re-parses to the same AST.

#![deny(missing_docs)]

pub mod fuzz;
pub mod pretty;
pub mod reference;
